(* Soak-scale machinery: checkpoint files, kill -> resume determinism,
   and pre-booted machine pools.

   The contract under test is the one million-run campaigns lean on: a
   checkpointed campaign stopped mid-flight and resumed -- with a
   different --jobs, on different workers -- must land on exactly the
   aggregate an uninterrupted run produces, down to the bytes of the
   final checkpoint file. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let run_cfg ?(fault = Inject.Fault.Failstop) ?(seed = 42L) () =
  {
    Inject.Run.default_config with
    Inject.Run.seed;
    fault;
    mech = Inject.Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
  }

let snapshot_t =
  Alcotest.testable Inject.Campaign.pp_snapshot
    (fun (a : Inject.Campaign.snapshot) b -> a = b)

let endure_snapshot_t =
  Alcotest.testable Endure.pp_snapshot (fun (a : Endure.snapshot) b -> a = b)

let temp_ck () = Filename.temp_file "nlh_ck" ".json"

let with_temp_ck f =
  let path = temp_ck () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ck ?(every = 2) ?(resume = false) ?stop_after path =
  {
    Inject.Pool.ck_path = path;
    ck_every = every;
    ck_resume = resume;
    ck_stop_after = stop_after;
  }

(* ----------------------- Checkpoint file format --------------------- *)

let test_checkpoint_roundtrip () =
  with_temp_ck (fun path ->
      let h =
        {
          Obs.Checkpoint.kind = "campaign";
          fingerprint = "campaign;test=roundtrip";
          chunk = 8;
          n_chunks = 5;
          done_chunks = [| true; false; true; true; false |];
        }
      in
      Obs.Checkpoint.write ~path h
        ~payload:(Obs.Json.Obj [ ("x", Obs.Json.Number 1.0) ]);
      match Obs.Checkpoint.read path with
      | Error msg -> Alcotest.fail msg
      | Ok (h', payload) ->
        checks "kind" h.Obs.Checkpoint.kind h'.Obs.Checkpoint.kind;
        checks "fingerprint" h.Obs.Checkpoint.fingerprint
          h'.Obs.Checkpoint.fingerprint;
        checki "chunk" h.Obs.Checkpoint.chunk h'.Obs.Checkpoint.chunk;
        checki "n_chunks" h.Obs.Checkpoint.n_chunks h'.Obs.Checkpoint.n_chunks;
        checkb "done bitmap" true
          (h.Obs.Checkpoint.done_chunks = h'.Obs.Checkpoint.done_chunks);
        checki "done count" 3 (Obs.Checkpoint.done_count h');
        checkb "not complete" false (Obs.Checkpoint.complete h');
        checkb "payload preserved" true
          (Obs.Json.member "x" payload = Some (Obs.Json.Number 1.0)))

let test_checkpoint_rejects_garbage () =
  let bad content =
    with_temp_ck (fun path ->
        let oc = open_out_bin path in
        output_string oc content;
        close_out oc;
        match Obs.Checkpoint.read path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail ("accepted bad checkpoint: " ^ content))
  in
  bad "";
  bad "not json at all";
  (* Truncated mid-object: a crash during a non-atomic write. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fing|};
  (* Wrong schema tag. *)
  bad {|{"schema":"nlh-checkpoint/9","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":1,"done":[],"payload":{}}|};
  (* done indices out of range / not ascending. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":2,"done":[2],"payload":{}}|};
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":3,"done":[1,1],"payload":{}}|};
  (* Missing payload. *)
  bad {|{"schema":"nlh-checkpoint/1","kind":"campaign","fingerprint":"f","chunk":1,"n_chunks":1,"done":[]}|}

let test_checkpoint_read_missing_file () =
  match Obs.Checkpoint.read "/nonexistent/nlh_ck.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"

let test_payload_roundtrip () =
  (* A real aggregate survives payload serialization bit-exactly. *)
  let r =
    Inject.Campaign.run ~base_seed:640L ~n:40
      (run_cfg ~fault:Inject.Fault.Register ())
  in
  let t = r.Inject.Campaign.totals in
  let payload =
    Obs.Json.to_string (Inject.Campaign.payload_of_totals ~fanout:3 t)
  in
  match Obs.Json.parse payload with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    match Inject.Campaign.totals_of_payload json with
    | Error msg -> Alcotest.fail msg
    | Ok (fanout, t') ->
      checki "fanout" 3 fanout;
      Alcotest.check snapshot_t "totals roundtrip"
        (Inject.Campaign.snapshot t)
        (Inject.Campaign.snapshot t');
      (* And the re-serialization is byte-identical: canonical form. *)
      checks "canonical payload" payload
        (Obs.Json.to_string (Inject.Campaign.payload_of_totals ~fanout:3 t')))

(* ----------------------- Kill -> resume drills ---------------------- *)

let test_campaign_kill_resume_identical () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    Inject.Campaign.run ~label:"soak test" ~base_seed:7_700L ~jobs
      ~oversubscribe ~chunk:8 ~fanout:2
      ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
      ~n:96 cfg
  in
  with_temp_ck (fun path ->
      with_temp_ck (fun path' ->
          let killed =
            drill ~path ~stop_after:(Some 4) ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          (* With fanout, a chunk counts prepared snapshots; each
             snapshot yields [fanout] runs: 4 chunks x 8 snapshots x 2. *)
          checki "killed after 4 chunks" 64
            killed.Inject.Campaign.totals.Inject.Campaign.runs;
          (* Resume with different jobs; the different --fanout flag is
             pinned back to the file's fanout=2 rather than corrupting
             chunk identity. *)
          let resumed =
            Inject.Campaign.run ~label:"soak test" ~base_seed:7_700L ~jobs:3
              ~oversubscribe:true ~chunk:8 ~fanout:5
              ~checkpoint:(ck ~every:1 ~resume:true path)
              ~n:96 cfg
          in
          let uninterrupted =
            drill ~path:path' ~stop_after:None ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          checki "full run count" 96
            uninterrupted.Inject.Campaign.totals.Inject.Campaign.runs;
          checki "the resume reports the file's fanout" 2
            resumed.Inject.Campaign.fanout;
          Alcotest.check snapshot_t "resumed = uninterrupted"
            (Inject.Campaign.snapshot
               uninterrupted.Inject.Campaign.totals)
            (Inject.Campaign.snapshot resumed.Inject.Campaign.totals);
          checks "final checkpoint files byte-identical" (read_file path')
            (read_file path)))

let test_campaign_resume_complete_noop () =
  (* Resuming a checkpoint whose every chunk is done re-runs nothing
     and reports the merged aggregate as-is. *)
  let cfg = run_cfg () in
  with_temp_ck (fun path ->
      let full =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:8
          ~checkpoint:(ck path) ~n:32 cfg
      in
      let again =
        Inject.Campaign.run ~base_seed:8_100L ~chunk:999 (* pinned to 8 *)
          ~checkpoint:(ck ~resume:true path) ~n:32 cfg
      in
      Alcotest.check snapshot_t "complete resume is a no-op"
        (Inject.Campaign.snapshot full.Inject.Campaign.totals)
        (Inject.Campaign.snapshot again.Inject.Campaign.totals))

let endure_cfg ?(cycles = 2) ?(settle = 120) ?(budget = Some 8) () =
  {
    Endure.run_cfg = run_cfg ();
    cycles;
    settle_activities = settle;
    leak_budget_pages = budget;
  }

(* Index of the first [sub] in [s]. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else at (i + 1)
  in
  at 0

(* One refusal table run against both drivers: each row resumes from a
   file the run must refuse, and names the check that refuses it by a
   fragment of its message. *)
let test_campaign_resume_rejects_mismatch () =
  let campaign ?(base_seed = 9_000L) ?(n = 32) ?(fault = Inject.Fault.Failstop)
      ck =
    ignore
      (Inject.Campaign.run ~base_seed ~chunk:8 ~checkpoint:ck ~n
         (run_cfg ~fault ()))
  in
  let endure ?(cfg = endure_cfg ()) ck =
    ignore
      (Endure.run ~base_seed:9_000L ~chunk:2 ~checkpoint:ck ~scenarios:4 cfg)
  in
  with_temp_ck (fun c_path ->
      with_temp_ck (fun e_path ->
          with_temp_ck (fun bad_path ->
              campaign (ck ~stop_after:1 c_path);
              endure (ck ~stop_after:1 e_path);
              let bad content =
                let oc = open_out_bin bad_path in
                output_string oc content;
                close_out oc;
                bad_path
              in
              let edited path ~sub ~by =
                let s = read_file path in
                match find s sub with
                | None -> Alcotest.fail ("no " ^ sub ^ " in " ^ path)
                | Some i ->
                  let j = i + String.length sub in
                  bad
                    (String.sub s 0 i ^ by
                    ^ String.sub s j (String.length s - j))
              in
              let truncated path =
                let s = read_file path in
                bad (String.sub s 0 (String.length s / 2))
              in
              let rejects what ~because run path =
                match run (ck ~resume:true path) with
                | exception Invalid_argument msg ->
                  checkb
                    (Printf.sprintf "%s: %S names %S" what msg because)
                    true
                    (find msg because <> None)
                | () -> Alcotest.fail ("resume accepted " ^ what)
              in
              rejects "a different fault config" ~because:"fingerprint"
                (campaign ~fault:Inject.Fault.Code)
                c_path;
              rejects "a different base seed" ~because:"fingerprint"
                (campaign ~base_seed:9_001L) c_path;
              rejects "a different run count" ~because:"fingerprint"
                (campaign ~n:64) c_path;
              rejects "an endurance file (campaign)" ~because:"kind" campaign
                e_path;
              rejects "a campaign file (endurance)" ~because:"kind" endure
                c_path;
              rejects "other cycles" ~because:"fingerprint"
                (endure ~cfg:(endure_cfg ~cycles:3 ()))
                e_path;
              rejects "other settle_activities" ~because:"fingerprint"
                (endure ~cfg:(endure_cfg ~settle:60 ()))
                e_path;
              rejects "another leak budget" ~because:"fingerprint"
                (endure ~cfg:(endure_cfg ~budget:(Some 4) ()))
                e_path;
              rejects "no leak budget" ~because:"fingerprint"
                (endure ~cfg:(endure_cfg ~budget:None ()))
                e_path;
              rejects "an edited n_chunks (campaign)" ~because:"imply"
                campaign
                (edited c_path ~sub:{|"n_chunks": 4|} ~by:{|"n_chunks": 5|});
              rejects "an edited n_chunks (endurance)" ~because:"imply" endure
                (edited e_path ~sub:{|"n_chunks": 2|} ~by:{|"n_chunks": 3|});
              rejects "a truncated campaign file" ~because:"cannot resume"
                campaign (truncated c_path);
              rejects "a truncated endurance file" ~because:"cannot resume"
                endure (truncated e_path);
              rejects "a cut-off header" ~because:"cannot resume" campaign
                (bad "{\"schema\":"))))

let test_checkpoint_postmortems_rejected () =
  with_temp_ck (fun path ->
      match
        Inject.Campaign.run ~postmortems:true ~checkpoint:(ck path) ~n:4
          (run_cfg ())
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "checkpoint + postmortems accepted")

let test_endure_kill_resume_identical () =
  let cfg =
    {
      Endure.default_config with
      Endure.run_cfg = run_cfg ~fault:Inject.Fault.Register ();
      cycles = 3;
      leak_budget_pages = Some 8;
    }
  in
  let drill ~path ~stop_after ~resume ~jobs ~oversubscribe =
    Endure.run ~label:"endure soak test" ~base_seed:5_500L ~jobs ~oversubscribe
      ~chunk:2
      ~checkpoint:(ck ~every:1 ~resume ?stop_after path)
      ~scenarios:12 cfg
  in
  with_temp_ck (fun path ->
      with_temp_ck (fun path' ->
          let killed =
            drill ~path ~stop_after:(Some 2) ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          checki "killed after 2 chunks of 2 scenarios" 4
            killed.Endure.totals.Endure.scenarios;
          let resumed =
            drill ~path ~stop_after:None ~resume:true ~jobs:2
              ~oversubscribe:true
          in
          let uninterrupted =
            drill ~path:path' ~stop_after:None ~resume:false ~jobs:1
              ~oversubscribe:false
          in
          Alcotest.check endure_snapshot_t "resumed = uninterrupted"
            (Endure.snapshot uninterrupted.Endure.totals)
            (Endure.snapshot resumed.Endure.totals);
          Alcotest.check endure_snapshot_t "checkpointed = un-checkpointed"
            (Endure.snapshot
               (Endure.run ~base_seed:5_500L ~scenarios:12 cfg).Endure.totals)
            (Endure.snapshot uninterrupted.Endure.totals);
          checks "final checkpoint files byte-identical" (read_file path')
            (read_file path)))

(* ----------------------- Machine pools ------------------------------ *)

let test_pool_matches_plain_run () =
  let cfg = run_cfg ~fault:Inject.Fault.Register () in
  let pool = Inject.Campaign.prepare_pool ~jobs:2 cfg in
  let plain = Inject.Campaign.run ~base_seed:3_300L ~jobs:1 ~n:50 cfg in
  let pooled =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  Alcotest.check snapshot_t "pooled = plain"
    (Inject.Campaign.snapshot plain.Inject.Campaign.totals)
    (Inject.Campaign.snapshot pooled.Inject.Campaign.totals);
  (* The pool survives the campaign: a second campaign on the same pool
     (machines reset in place, not rebooted) is still deterministic. *)
  let pooled' =
    Inject.Campaign.run ~base_seed:3_300L ~jobs:2 ~oversubscribe:true ~pool
      ~n:50 cfg
  in
  Alcotest.check snapshot_t "pool reuse deterministic"
    (Inject.Campaign.snapshot pooled.Inject.Campaign.totals)
    (Inject.Campaign.snapshot pooled'.Inject.Campaign.totals)

let test_pool_checkpoint_resume () =
  (* Pools compose with checkpointing: kill a pooled campaign, resume
     on the same pool. *)
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 cfg in
  with_temp_ck (fun path ->
      let killed =
        Inject.Campaign.run ~base_seed:4_400L ~chunk:8 ~pool
          ~checkpoint:(ck ~every:1 ~stop_after:2 path)
          ~n:48 cfg
      in
      checki "killed early" 16
        killed.Inject.Campaign.totals.Inject.Campaign.runs;
      let resumed =
        Inject.Campaign.run ~base_seed:4_400L ~pool
          ~checkpoint:(ck ~resume:true path) ~n:48 cfg
      in
      let plain = Inject.Campaign.run ~base_seed:4_400L ~n:48 cfg in
      Alcotest.check snapshot_t "pooled resume = plain"
        (Inject.Campaign.snapshot plain.Inject.Campaign.totals)
        (Inject.Campaign.snapshot resumed.Inject.Campaign.totals))

let test_pool_settings_mismatch_rejected () =
  let cfg = run_cfg () in
  let pool = Inject.Campaign.prepare_pool ~jobs:1 ~postmortems:true cfg in
  match Inject.Campaign.run ~pool ~n:4 cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pool settings mismatch accepted"

let () =
  Alcotest.run "soak"
    [
      ( "checkpoint-file",
        [
          Alcotest.test_case "header+payload roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "missing file" `Quick
            test_checkpoint_read_missing_file;
          Alcotest.test_case "campaign payload roundtrip" `Quick
            test_payload_roundtrip;
        ] );
      ( "kill-resume",
        [
          Alcotest.test_case "campaign resume identical" `Quick
            test_campaign_kill_resume_identical;
          Alcotest.test_case "complete resume no-op" `Quick
            test_campaign_resume_complete_noop;
          Alcotest.test_case "resume rejects mismatch" `Quick
            test_campaign_resume_rejects_mismatch;
          Alcotest.test_case "postmortems rejected" `Quick
            test_checkpoint_postmortems_rejected;
          Alcotest.test_case "endurance resume identical" `Quick
            test_endure_kill_resume_identical;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool matches plain run" `Quick
            test_pool_matches_plain_run;
          Alcotest.test_case "pool + checkpoint resume" `Quick
            test_pool_checkpoint_resume;
          Alcotest.test_case "pool settings mismatch" `Quick
            test_pool_settings_mismatch_rejected;
        ] );
    ]
