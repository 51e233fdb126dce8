(* Campaign CLI: run fault-injection campaigns against the simulated
   virtualization platform from the command line. *)

let run_campaign cfg ~n ~seed ~jobs ~chunk ~fanout ~label =
  let result =
    Inject.Campaign.run ~label ~base_seed:seed ~jobs ?chunk ~fanout
      ~postmortems:(Obs_cli.postmortems_on ())
      ?checkpoint:(Obs_cli.checkpoint ())
      ?triage_seed_cap:(Obs_cli.triage_seed_cap ()) ~n cfg
  in
  (match Obs_cli.checkpoint () with
  | Some ck ->
    Format.printf "checkpoint: %s (%d runs aggregated)@."
      ck.Inject.Pool.ck_path
      result.Inject.Campaign.totals.Inject.Campaign.runs
  | None -> ());
  Format.printf "%a" Inject.Campaign.pp result;
  (match Inject.Campaign.mean_latency result with
  | Some l -> Format.printf "mean recovery latency: %a@." Sim.Time.pp_float l
  | None -> ());
  List.iter
    (fun (k, v) -> Format.printf "  note: %s x%d@." k v)
    (Inject.Campaign.failure_notes result.Inject.Campaign.totals);
  if !Obs_cli.metrics_file <> "" then
    Obs_cli.write_metrics
      ~meta:
        Obs.Json.[
          ("tool", String "nlh_campaign");
          ("label", String label);
          ("runs", of_int n);
          ("base_seed", of_int (Int64.to_int seed));
          ("jobs", of_int result.Inject.Campaign.jobs);
          ("fanout", of_int result.Inject.Campaign.fanout);
          ("cores", of_int (Domain.recommended_domain_count ()));
        ]
      !Obs_cli.metrics_file
      result.Inject.Campaign.totals.Inject.Campaign.metrics;
  Obs_cli.write_triage
    ~meta:
      Obs.Json.[
        ("tool", String "nlh_campaign");
        ("label", String label);
        ("runs", of_int n);
        ("base_seed", of_int (Int64.to_int seed));
        ("fanout", of_int result.Inject.Campaign.fanout);
      ]
    result.Inject.Campaign.totals.Inject.Campaign.triage;
  if !Obs_cli.trace_file <> "" then
    (* One extra instrumented run at the base seed: same config, full
       event/span recording, exported as a Chrome-trace timeline. *)
    ignore (Obs_cli.traced_run !Obs_cli.trace_file { cfg with Inject.Run.seed })

let () =
  let mech = ref Inject.Run.default_config.Inject.Run.mech in
  let fault = ref Inject.Run.default_config.Inject.Run.fault in
  let setup = ref Inject.Run.default_config.Inject.Run.setup in
  let n = ref 200 in
  let seed = ref 10_000 in
  let jobs = ref 1 in
  let chunk = ref 0 in
  let fanout = ref 1 in
  let ladder = ref false in
  let spec =
    [
      Inject.Vocab.mech_spec mech;
      Inject.Vocab.fault_spec fault;
      Inject.Vocab.setup_spec setup;
      ("--runs", Arg.Set_int n, " number of injection runs");
      Inject.Vocab.seed_spec seed;
      Inject.Vocab.jobs_spec jobs
        " parallel worker domains (0 = one per core; default 1)";
      ( "--chunk",
        Arg.Set_int chunk,
        " work items per scheduling chunk (0 = auto; ignored on --resume, \
         which pins the checkpoint's chunk size)" );
      ( "--fanout",
        Arg.Set_int fanout,
        " fault variants cloned from each prepared snapshot (default 1)" );
      ("--ladder", Arg.Set ladder, " run the Table I enhancement ladder");
    ]
    @ Obs_cli.arg_specs
  in
  Arg.parse spec Inject.Vocab.no_positional "nlh_campaign [options]";
  if !ladder then
    List.iter
      (fun (label, result) ->
        Format.printf "%-50s success %a@." label Sim.Stats.pp_proportion
          (Inject.Campaign.success_rate result);
        List.iter
          (fun (k, v) ->
            let k = if String.length k > 90 then String.sub k 0 90 else k in
            Format.printf "      %3dx %s@." v k)
          (List.sort
             (fun (_, a) (_, b) -> compare b a)
             (Inject.Campaign.failure_notes result.Inject.Campaign.totals)))
      (Core.Experiment.ladder ~base_seed:(Int64.of_int !seed)
         ~jobs:(Inject.Vocab.jobs !jobs) ~n:!n)
  else
    run_campaign
      (Inject.Vocab.config
         ~base:
           {
             Inject.Run.default_config with
             Inject.Run.fault = !fault;
             setup = !setup;
           }
         !mech)
      ~n:!n ~seed:(Int64.of_int !seed) ~jobs:(Inject.Vocab.jobs !jobs)
      ~chunk:(if !chunk > 0 then Some !chunk else None)
      ~fanout:!fanout ~label:(Inject.Vocab.label !mech !fault)
