(* Tests for incremental microreset and the tenant fleet scenario:
   fresh-vs-incremental equivalence across the whole corruption
   catalogue, jobs-invariant fleet aggregates, the fleet latency gates
   and silence-gap bound, the scan-path coverage and fuzz axes, and
   dirty-tracked heap/timer restore with zero-leak ledger audits. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let boot ?(config = Hyper.Config.nilihype) ?obs () =
  let clock = Sim.Clock.create () in
  Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config ?obs ~config
    ~setup:Hyper.Hypervisor.Three_appvm clock

let full = Recovery.Enhancement.full_set

(* Boot + warmup + golden snapshot + one corruption, deterministically
   from [seed]; returns the machine ready for a recovery attempt. *)
let damaged_machine ~config ~seed target =
  let hv = boot ~config () in
  let rng = Sim.Rng.create seed in
  Twin.warmup hv rng ~steps:120;
  ignore (Hyper.Hypervisor.snapshot hv);
  Inject.Corrupt.apply hv rng target;
  hv

let recover_outcome hv =
  match Recovery.Engine.recover Recovery.Engine.Nilihype hv ~enh:full ~detected_on:0 with
  | out -> Ok out
  | exception Hyper.Crash.Hypervisor_crash c -> Error (Hyper.Crash.describe c)

(* ------------------- fresh vs incremental equivalence ---------------- *)

(* The equivalence guarantee: for every corruption in the catalogue, the
   incremental (dirty-list) consistency scan must leave the machine in
   exactly the state the full scan does, with the same outcome class.
   Identical twins differing only in [incremental_scan] are damaged
   identically and recovered with the same mechanism. *)
let test_equivalence_matrix () =
  List.iter
    (fun target ->
      let name = Inject.Corrupt.name target in
      let seed = 7_700L in
      let a = damaged_machine ~config:Hyper.Config.nilihype ~seed target in
      let bm =
        damaged_machine ~config:Hyper.Config.nilihype_incremental ~seed target
      in
      match (recover_outcome a, recover_outcome bm) with
      | Ok oa, Ok ob ->
        (match oa.Recovery.Engine.scan_mode with
        | Some Recovery.Microreset.Full_scan -> ()
        | _ -> Alcotest.failf "%s: full machine did not take the full scan" name);
        (* The incremental machine takes the dirty-list path -- except
           when the corruption smashed the tracking itself, where the
           guarantee is delivered by falling back to the full scan. *)
        (match (target, ob.Recovery.Engine.scan_mode) with
        | Inject.Corrupt.Pfn_tracker, Some Recovery.Microreset.Full_scan -> ()
        | Inject.Corrupt.Pfn_tracker, m ->
          Alcotest.failf "%s: expected full-scan fallback, got %s" name
            (match m with
            | Some s -> Recovery.Microreset.scan_mode_name s
            | None -> "none")
        | _, Some Recovery.Microreset.Incremental_scan -> ()
        | _, m ->
          Alcotest.failf "%s: expected incremental scan, got %s" name
            (match m with
            | Some s -> Recovery.Microreset.scan_mode_name s
            | None -> "none"));
        checki (name ^ ": pfn repairs agree")
          oa.Recovery.Engine.repairs.Recovery.Engine.pfn_fixed
          ob.Recovery.Engine.repairs.Recovery.Engine.pfn_fixed;
        checks (name ^ ": post-recovery state identical") (Twin.digest a)
          (Twin.digest bm)
      | Error ea, Error eb -> checks (name ^ ": same death") ea eb
      | Ok _, Error e ->
        Alcotest.failf "%s: incremental died (%s) where full recovered" name e
      | Error e, Ok _ ->
        Alcotest.failf "%s: full died (%s) where incremental recovered" name e)
    (Array.to_list Inject.Corrupt.all)

(* A recovery attempt that dies invalidates the dirty tracking, so the
   next attempt on the same instance must take the full scan even with
   [incremental_scan] on -- the automatic fallback the equivalence
   guarantee rests on after [died]. *)
let test_fallback_after_died () =
  let hv = boot ~config:Hyper.Config.nilihype_incremental () in
  let rng = Sim.Rng.create 8_800L in
  Twin.warmup hv rng ~steps:80;
  ignore (Hyper.Hypervisor.snapshot hv);
  hv.Hyper.Hypervisor.recovery_handler_ok <- false;
  (match recover_outcome hv with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovery should die with a corrupted handler");
  checkb "tracking invalidated by the died attempt" false
    (Hyper.Pfn.tracking_usable hv.Hyper.Hypervisor.pfn);
  hv.Hyper.Hypervisor.recovery_handler_ok <- true;
  match recover_outcome hv with
  | Ok out ->
    (match out.Recovery.Engine.scan_mode with
    | Some Recovery.Microreset.Full_scan -> ()
    | _ -> Alcotest.fail "post-died recovery must fall back to the full scan")
  | Error e -> Alcotest.failf "second recovery died: %s" e

(* --------------------------- fleet scenario -------------------------- *)

let small_fleet =
  {
    Fleet.default_config with
    Fleet.tenants = 32;
    trials = 2;
    victims = 2;
    warmup_activities = 120;
  }

let test_fleet_jobs_invariant () =
  List.iter
    (fun mech ->
      let a = Fleet.run ~jobs:1 small_fleet mech in
      let b = Fleet.run ~jobs:3 ~oversubscribe:true small_fleet mech in
      checkb
        (Fleet.mechanism_name mech ^ ": aggregates jobs-invariant")
        true
        (a.Fleet.metrics = b.Fleet.metrics))
    Fleet.all_mechanisms

(* The tail-latency claims, at test scale: the incremental microreset
   recovers in at most 15% of the full scan's latency at reference
   geometry, its request p99 through the event is strictly below the
   full scan's, and it keeps every request inside the SLO. *)
let test_fleet_gates () =
  let full_r = Fleet.run small_fleet Fleet.Serial_full in
  let incr_r = Fleet.run small_fleet Fleet.Serial_incremental in
  List.iter
    (fun r ->
      checki
        (Fleet.mechanism_name r.Fleet.mech ^ ": requests = histogram samples")
        (Fleet.requests r) (Fleet.request_samples r);
      checki
        (Fleet.mechanism_name r.Fleet.mech ^ ": one recovery per trial")
        small_fleet.Fleet.trials
        (Fleet.scan_incremental r + Fleet.scan_full r))
    [ full_r; incr_r ];
  checki "serial-full takes the full scan every trial" small_fleet.Fleet.trials
    (Fleet.scan_full full_r);
  checki "serial-incremental takes the dirty path every trial"
    small_fleet.Fleet.trials
    (Fleet.scan_incremental incr_r);
  let fm = Fleet.recovery_mean_ns full_r in
  let im = Fleet.recovery_mean_ns incr_r in
  checkb
    (Printf.sprintf "incremental mean %d <= 15%% of full mean %d" im fm)
    true
    (im * 100 <= fm * 15);
  let p99f = Fleet.request_quantile full_r 0.99 in
  let p99i = Fleet.request_quantile incr_r 0.99 in
  checkb
    (Printf.sprintf "serial-incremental p99 %d < serial-full p99 %d" p99i p99f)
    true (p99i < p99f);
  checkb "full-scan stall violates the SLO somewhere" true
    (Fleet.slo_violations full_r > 0);
  checki "incremental recovery stays inside the SLO" 0
    (Fleet.slo_violations incr_r)

(* The longest silence a tenant's sender sees is its recovery stall,
   stretched by at most one request interval on each side (the last
   echo before the fault and the first after the resume). Warmup time
   before the observation window is not silence. *)
let test_fleet_max_gap_bound () =
  let interval = small_fleet.Fleet.request_interval in
  List.iter
    (fun mech ->
      let r = Fleet.run small_fleet mech in
      let rec_max = Fleet.recovery_max_ns r and gap = Fleet.max_gap_ns r in
      checkb
        (Printf.sprintf "%s: recovery %d <= max gap %d <= recovery + 2 x %d"
           (Fleet.mechanism_name mech) rec_max gap interval)
        true
        (rec_max <= gap && gap <= rec_max + (2 * interval)))
    Fleet.all_mechanisms

(* --------------------- coverage and fuzz axes ------------------------ *)

(* The recovery path taken is a fuzz coverage point: the scan counters
   land in the metrics snapshot, and [Obs.Coverage.points] derives
   c:<counter>:<bucket> points from nonzero counters. *)
let test_scan_path_is_coverage_point () =
  let recorder = Obs.Recorder.create () in
  let hv = boot ~config:Hyper.Config.nilihype_incremental ~obs:recorder () in
  let rng = Sim.Rng.create 3_300L in
  Twin.warmup hv rng ~steps:60;
  ignore (Hyper.Hypervisor.snapshot hv);
  Inject.Corrupt.apply hv rng Inject.Corrupt.Pfn_validated_flip;
  (match recover_outcome hv with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery died: %s" e);
  let points =
    Obs.Coverage.points ~outcome:"recovered"
      (Obs.Recorder.metrics_snapshot recorder)
  in
  let has prefix =
    List.exists
      (fun p ->
        String.length p >= String.length prefix
        && String.sub p 0 (String.length prefix) = prefix)
      points
  in
  checkb "incremental scan path covered" true
    (has "c:recovery.pfn_scan.incremental:");
  checkb "full scan path not taken" false (has "c:recovery.pfn_scan.full:")

(* Fuzz op tag 4 carries the recovery-path axis in its spare arg bits:
   bit 2 of the argument toggles [p_incremental], and [config_of]
   propagates it into the run's hypervisor config. *)
let test_fuzz_incremental_axis () =
  let base_seed = 5_000L in
  let op ~arg = (arg lsl 3) lor 4 in
  (* args 6 and 0: same crash mode (arg mod 3 = 0), bit 2 differs *)
  let on = Fuzz.Input.apply ~base_seed [ op ~arg:0b110 ] in
  let off = Fuzz.Input.apply ~base_seed [ op ~arg:0b000 ] in
  checkb "bit 2 set turns the incremental scan on" true
    on.Fuzz.Input.p_incremental;
  checkb "bit 2 clear leaves it off" false off.Fuzz.Input.p_incremental;
  checki "crash mode decodes from the same op" on.Fuzz.Input.p_crash
    off.Fuzz.Input.p_crash;
  checkb "the axis is part of the point identity" false
    (Fuzz.Input.point_key on = Fuzz.Input.point_key off);
  let base = Inject.Run.default_config in
  let con = Fuzz.Input.config_of ~base on in
  let coff = Fuzz.Input.config_of ~base off in
  checkb "config_of turns the scan on" true
    con.Inject.Run.hv_config.Hyper.Config.incremental_scan;
  checkb "config_of leaves the scan off" false
    coff.Inject.Run.hv_config.Hyper.Config.incremental_scan

(* ----------------- dirty-tracked heap and timer restore ------------- *)

let test_heap_dirty_restore () =
  let h = Hyper.Heap.create () in
  let keep = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.snapshot h;
  checki "snapshot drains the dirty list" 0 (Hyper.Heap.dirty_count h);
  let tmp = Hyper.Heap.alloc h ~size:128 Hyper.Heap.Timer_data in
  Hyper.Heap.free h keep;
  Hyper.Heap.corrupt_header tmp;
  Hyper.Heap.corrupt_freelist h "test";
  checkb "mutations land on the dirty list" true (Hyper.Heap.dirty_count h > 0);
  Hyper.Heap.restore h;
  checki "restore rewinds to the golden population" 1 (Hyper.Heap.live_count h);
  checkb "freed object live again" true keep.Hyper.Heap.live;
  checkb "allocated object gone" false tmp.Hyper.Heap.live;
  checkb "freelist integrity restored" true (Hyper.Heap.freelist_ok h);
  checki "restore drains the dirty list" 0 (Hyper.Heap.dirty_count h)

let test_timer_dirty_restore () =
  let t = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add t ~deadline:500 Hyper.Timer_heap.Watchdog_tick);
  Hyper.Timer_heap.snapshot t;
  let size0 = Hyper.Timer_heap.size t in
  ignore (Hyper.Timer_heap.add t ~deadline:100 Hyper.Timer_heap.Watchdog_tick);
  ignore (Hyper.Timer_heap.pop t);
  Hyper.Timer_heap.corrupt_structure t;
  checkb "mutations land on the dirty list" true
    (Hyper.Timer_heap.dirty_count t > 0);
  Hyper.Timer_heap.restore t;
  checki "size restored" size0 (Hyper.Timer_heap.size t);
  checkb "structure integrity restored" true (Hyper.Timer_heap.structure_ok t);
  checki "restore drains the dirty list" 0 (Hyper.Timer_heap.dirty_count t);
  match Hyper.Timer_heap.next_deadline t with
  | Some d -> checki "golden deadline back at the root" 500 d
  | None -> Alcotest.fail "restored heap is empty"

(* Restores must leak nothing: the resource ledger after a
   snapshot -> damage -> restore round trip is identical to the golden
   capture, whatever the workload dirtied in between. *)
let test_restore_zero_leak () =
  let hv = boot ~config:Hyper.Config.nilihype_incremental () in
  let rng = Sim.Rng.create 6_600L in
  Twin.warmup hv rng ~steps:100;
  let image = Hyper.Hypervisor.snapshot hv in
  let before = Hyper.Ledger.capture hv in
  Twin.warmup hv rng ~steps:60;
  Inject.Corrupt.apply hv rng Inject.Corrupt.Pfn_use_count_skew;
  Inject.Corrupt.apply hv rng Inject.Corrupt.Timer_deadline;
  Hyper.Hypervisor.restore hv image;
  let after = Hyper.Ledger.capture hv in
  let d = Hyper.Ledger.diff ~before ~after in
  checkb "no resource leaked across restore" true (Hyper.Ledger.no_leak d);
  checki "no pages leaked" 0 (Hyper.Ledger.leaked_pages d);
  checki "pfn dirty list drained" 0
    (Hyper.Pfn.dirty_count hv.Hyper.Hypervisor.pfn);
  checki "heap dirty list drained" 0
    (Hyper.Heap.dirty_count hv.Hyper.Hypervisor.heap);
  checki "timer dirty list drained" 0
    (Hyper.Timer_heap.dirty_count hv.Hyper.Hypervisor.timers)

let () =
  Alcotest.run "fleet"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fresh vs incremental across the catalogue"
            `Quick test_equivalence_matrix;
          Alcotest.test_case "full-scan fallback after died" `Quick
            test_fallback_after_died;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "aggregates jobs-invariant" `Quick
            test_fleet_jobs_invariant;
          Alcotest.test_case "latency gates hold at test scale" `Quick
            test_fleet_gates;
          Alcotest.test_case "max gap bounded by the recovery stall" `Quick
            test_fleet_max_gap_bound;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "scan path is a coverage point" `Quick
            test_scan_path_is_coverage_point;
          Alcotest.test_case "fuzz tag-4 incremental axis" `Quick
            test_fuzz_incremental_axis;
        ] );
      ( "dirty-tracking",
        [
          Alcotest.test_case "heap dirty restore" `Quick test_heap_dirty_restore;
          Alcotest.test_case "timer dirty restore" `Quick
            test_timer_dirty_restore;
          Alcotest.test_case "zero-leak restore audit" `Quick
            test_restore_zero_leak;
        ] );
    ]
