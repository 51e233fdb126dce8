(* The repository benchmark.

   One invocation runs one workload for one seed. With [--trace 0] it
   measures the end-to-end metrics from untraced calls into the public
   entry points ([Inject.Campaign.run], [Fleet.run]) and checks their
   outputs; with [--trace 1] it replays the same seeds stage by stage
   under in-memory spans and reports the per-layer metrics. Either way
   the last line of standard output is the JSON result, and any failed
   output check makes the exit code nonzero. NOTE.md records why each
   workload exists and which layer metric should move which end-to-end
   metric. *)

module Hv = Hyper.Hypervisor
module Run = Inject.Run
module Campaign = Inject.Campaign

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [f ()] and its host duration in ns. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, since t0)

(* Linear-interpolated quantile; [nan] on an empty list. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The highest percentile with at least ten samples beyond it, capped at
   p99: a tail figure from fewer samples would be one or two runs. *)
let tail_q n = if n <= 20 then 0.5 else Float.min 0.99 (1.0 -. (10.0 /. float_of_int n))

(* p-quantile of a log-bucket histogram snapshot, interpolated linearly
   inside the bucket holding the rank (the library's own quantile
   answers the bucket's upper bound). *)
let hist_quantile (h : Obs.Metrics.hist_snapshot) q =
  let rank = q *. float_of_int h.Obs.Metrics.h_samples in
  let rec walk lo cum bounds counts =
    match (bounds, counts) with
    | b :: rb, c :: rc ->
      let cum' = cum + c in
      if c > 0 && float_of_int cum' >= rank then
        let frac = (rank -. float_of_int cum) /. float_of_int c in
        float_of_int lo +. (frac *. float_of_int (b - lo))
      else walk b cum' rb rc
    | _ -> float_of_int lo
  in
  walk 0 0 h.Obs.Metrics.h_bounds h.Obs.Metrics.h_counts

(* ------------------------------------------------------------------ *)
(* Results and output checks                                           *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let emit name unit_ value = metrics := (name, value, unit_) :: !metrics
let attempted = ref 0
let failed = ref 0

let check name ok detail =
  incr attempted;
  if ok then Printf.printf "check ok      %s\n%!" name
  else begin
    incr failed;
    Printf.printf "CHECK FAILED  %s: %s\n%!" name detail
  end

(* A harness operation covering [n] attempted items: an exception fails
   all of them. *)
let op ?(n = 1) name f =
  attempted := !attempted + n;
  match f () with
  | x -> Some x
  | exception e ->
    failed := !failed + n;
    Printf.printf "OP FAILED     %s: %s\n%!" name (Printexc.to_string e);
    None

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let metrics_json () =
  "{"
  ^ String.concat ", "
      (List.rev_map
         (fun (name, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_number v) (json_string u))
         !metrics)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Simulated latencies are charged at the paper's 8 GB / 8-CPU host. *)
let at_reference hv = { hv with Hyper.Config.geometry = Some Hyper.Config.reference_geometry }

let campaign_config fault mech hv =
  {
    Run.default_config with
    Run.fault;
    setup = Run.Three_appvm;
    mech = Run.Mech (mech, Recovery.Enhancement.full_set);
    hv_config = at_reference hv;
  }

type kind = Campaign_wl of Run.config | Fleet_wl of Fleet.config * Fleet.mechanism

type sizes = {
  sample : int; (* runs (trials) in the fixed per-seed sample *)
  timed : int; (* the sample's first runs (trials), timed over and over *)
  block : int; (* runs (trials) per timed Campaign.run / Fleet.run call *)
  jobs_check : int; (* runs (trials) aggregated at jobs=1 and jobs=2 *)
  trace_min : int; (* traced/untraced pairs, at least *)
  structure_reps : int; (* warmed machines each structure is timed on *)
  pool_reps : int; (* interleaved jobs=1 / jobs=2 pairs *)
}

type workload = {
  name : string;
  kind : kind;
  full : sizes;
  paper_success : (float * string) option; (* Figure 2 reference *)
  paper_latency_ms : (float * string) option; (* Tables II / III *)
}

(* The benchmark's own tests run every workload at a twentieth of its
   sample: enough for every metric to have samples, small enough to
   finish in a second or two. *)
let tiny_of s =
  {
    sample = s.sample / 20;
    timed = s.timed / 20;
    block = 1;
    jobs_check = s.jobs_check / 10;
    trace_min = s.trace_min / 20;
    structure_reps = 2;
    pool_reps = 1;
  }

let workloads =
  [
    {
      name = "failstop-fullscan";
      kind =
        Campaign_wl
          (campaign_config Inject.Fault.Failstop Recovery.Engine.Nilihype
             Hyper.Config.nilihype);
      full =
        { sample = 1000; timed = 500; block = 10; jobs_check = 100; trace_min = 200; structure_reps = 20; pool_reps = 3 };
      paper_success = Some (0.96, "Figure 2, NiLiHype failstop ~96%");
      paper_latency_ms = Some (22.0, "Table III, NiLiHype 22 ms");
    };
    {
      name = "register-mix";
      kind =
        Campaign_wl
          (campaign_config Inject.Fault.Register Recovery.Engine.Nilihype
             Hyper.Config.nilihype);
      full =
        { sample = 4000; timed = 1000; block = 10; jobs_check = 200; trace_min = 400; structure_reps = 20; pool_reps = 3 };
      paper_success = Some (0.945, "Figure 2, NiLiHype register ~94.5%");
      paper_latency_ms = Some (22.0, "Table III, NiLiHype 22 ms");
    };
    {
      name = "fleet-incremental";
      kind = Fleet_wl ({ Fleet.default_config with Fleet.tenants = 200 }, Fleet.Serial_incremental);
      full =
        { sample = 200; timed = 40; block = 2; jobs_check = 20; trace_min = 40; structure_reps = 10; pool_reps = 3 };
      paper_success = None;
      paper_latency_ms = None;
    };
    {
      name = "rehype-failstop";
      kind =
        Campaign_wl
          (campaign_config Inject.Fault.Failstop Recovery.Engine.Rehype
             Hyper.Config.rehype);
      full =
        { sample = 1000; timed = 500; block = 10; jobs_check = 100; trace_min = 200; structure_reps = 20; pool_reps = 3 };
      paper_success = Some (0.96, "Figure 2, ReHype failstop ~96%");
      paper_latency_ms = Some (713.0, "Table II, ReHype 713 ms");
    };
  ]

(* Distinct benchmark seeds map to disjoint run-seed ranges. *)
let base_seed seed = Int64.add 1_000_000L (Int64.mul (Int64.of_int seed) 100_000L)

let config_line wl =
  match wl.kind with
  | Campaign_wl c ->
    let mech =
      match c.Run.mech with
      | Run.No_recovery -> "none"
      | Run.Mech (m, _) -> Recovery.Engine.mechanism_name m
    in
    Printf.sprintf
      "mech=%s fault=%s setup=3AppVM enhancements=full incremental_scan=%b \
       geometry=reference(%d frames, %d cpus) warmup=%d post=%d trigger_window=%d"
      mech (Inject.Fault.name c.Run.fault) c.Run.hv_config.Hyper.Config.incremental_scan
      Hyper.Config.reference_geometry.Hyper.Config.frames
      Hyper.Config.reference_geometry.Hyper.Config.cpus c.Run.warmup_activities
      c.Run.post_activities c.Run.trigger_window_steps
  | Fleet_wl (f, mech) ->
    Printf.sprintf
      "fleet mech=%s tenants=%d victims=%d frames_per_victim=%d warmup=%d \
       request_interval_ns=%d pre_window_ns=%d post_window_ns=%d slo_ns=%d"
      (Fleet.mechanism_name mech) f.Fleet.tenants f.Fleet.victims
      f.Fleet.frames_per_victim f.Fleet.warmup_activities f.Fleet.request_interval
      f.Fleet.pre_window f.Fleet.post_window f.Fleet.slo

(* ------------------------------------------------------------------ *)
(* Spans (traced run only)                                             *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int; (* -1 for a root *)
  sp_run : int; (* the run's seed *)
  sp_start : int64;
  sp_end : int64;
  sp_words : float; (* minor words allocated inside the span *)
}

let spans : span list ref = ref []
let next_span = ref 0

(* Record a span around [f]; [f] receives the span's id so nested calls
   can name it as their parent. *)
let with_span ~run ~parent name f =
  let id = !next_span in
  incr next_span;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f id in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  spans :=
    { sp_id = id; sp_name = name; sp_parent = parent; sp_run = run; sp_start = t0; sp_end = t1;
      sp_words = w1 -. w0 }
    :: !spans;
  x

let span_ns s = Int64.to_float (Int64.sub s.sp_end s.sp_start)

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          (span_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    spans;
  List.map
    (fun s -> (s, span_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id)))
    spans

let write_spans path prov =
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\": \"perfbench-spans/1\", \"provenance\": %s,\n \"spans\": [\n" prov;
  let all = List.rev !spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "  {\"id\": %d, \"name\": %s, \"parent\": %d, \"run\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld, \"minor_words\": %.0f}%s\n"
        s.sp_id (json_string s.sp_name) s.sp_parent s.sp_run s.sp_start s.sp_end s.sp_words
        (if i = List.length all - 1 then "" else ","))
    all;
  Printf.fprintf oc " ]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-seed untraced outcomes                                          *)
(* ------------------------------------------------------------------ *)

(* What one run (or fleet trial) produced, in the terms the end-to-end
   metrics and the replay check need. *)
type result = {
  detected : bool;
  success : bool;
  latency_ns : int; (* simulated recovery latency; 0 if none *)
}

let result_of_outcome = function
  | Run.Non_manifested | Run.Silent_corruption -> { detected = false; success = false; latency_ns = 0 }
  | Run.Detected d ->
    { detected = true; success = d.Run.success; latency_ns = d.Run.recovery_latency }

let counter (s : Obs.Metrics.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.Metrics.counters)

let hist (s : Obs.Metrics.snapshot) name = List.assoc_opt name s.Obs.Metrics.histograms

let hist_sum s name =
  match hist s name with Some h -> h.Obs.Metrics.h_sum | None -> 0

(* [fleet.max_gap_ns] measures the warmup length, not the recovery gap
   (a known defect in lib/fleet); it is kept out of every comparison and
   report until that is fixed. *)
let without_gap (s : Obs.Metrics.snapshot) =
  { s with Obs.Metrics.gauges = List.filter (fun (n, _) -> n <> "fleet.max_gap_ns") s.Obs.Metrics.gauges }

(* ------------------------------------------------------------------ *)
(* Traced stage replays                                                *)
(* ------------------------------------------------------------------ *)

(* Per-run layer statistics collected by a traced replay. *)
type stats = {
  host_ns : float;
  stage_ns : (string * float) list;
  stage_words : (string * float) list;
  activities : int;
  hypercalls : int;
  retries : int;
  journal_writes : int;
  dirty : int * int * int; (* pfn, heap, timer entries dirty at the end *)
  recovery : recov option;
  requests : int;
}

and recov = {
  r_host_ns : float;
  r_sim_ns : int;
  r_full : bool; (* the consistency scan walked the whole pfn table *)
  r_fixed : int; (* descriptors repaired *)
  r_scanned : int; (* descriptors the scan walked *)
  r_locks : int; (* heap and static locks released *)
}

(* What a run left on its machine's counters: activities since the
   Cycle_account entry count [entries0], hypercalls, hypercall retries,
   journal writes, and the pfn/heap/timer entries still dirty. *)
let run_counters (hv : Hv.t) ~entries0 =
  let obs = hv.Hv.obs in
  ( hv.Hv.cycles.Hyper.Cycle_account.entries - entries0,
    obs.Obs.Recorder.hypercall_entries.Obs.Metrics.count,
    obs.Obs.Recorder.hypercall_retries.Obs.Metrics.count,
    obs.Obs.Recorder.journal_writes.Obs.Metrics.count,
    ( Hyper.Pfn.dirty_count hv.Hv.pfn,
      Hyper.Heap.dirty_count hv.Hv.heap,
      Hyper.Timer_heap.dirty_count hv.Hv.timers ) )

let stage_stats root =
  let mine = List.filter (fun s -> s.sp_parent = root) !spans in
  ( List.map (fun s -> (s.sp_name, span_ns s)) mine,
    List.map (fun s -> (s.sp_name, s.sp_words)) mine )

(* Time [Recovery.Engine.recover] under a "recover" span. *)
let timed_recover span mechanism (hv : Hv.t) ~detected_on =
  let dirty_before = Hyper.Pfn.dirty_count hv.Hv.pfn in
  let o, ns =
    timed (fun () ->
        span "recover" (fun () ->
            Recovery.Engine.recover mechanism hv ~enh:Recovery.Enhancement.full_set ~detected_on))
  in
  let r = o.Recovery.Engine.repairs in
  let full =
    match o.Recovery.Engine.scan_mode with
    | Some Recovery.Microreset.Incremental_scan -> false
    | Some Recovery.Microreset.Full_scan | None -> true (* ReHype always walks the table *)
  in
  ( o,
    {
      r_host_ns = ns;
      r_sim_ns = o.Recovery.Engine.latency;
      r_full = full;
      r_fixed = r.Recovery.Engine.pfn_fixed;
      r_scanned = (if full then Hv.frames hv else dirty_before);
      r_locks = r.Recovery.Engine.heap_locks_released + r.Recovery.Engine.static_locks_released;
    } )

(* Replay one campaign run by calling the [Inject.Run] stages in
   [Run.finish_prepared]'s order, one span per stage. Must classify
   exactly as [Run.execute_into] does; the replay check compares the two
   seed for seed. *)
let replay_campaign (w : Run.worker) (cfg : Run.config) =
  let run = Int64.to_int cfg.Run.seed in
  let rec_info = ref None in
  let counts = ref (0, 0, 0, 0, (0, 0, 0)) in
  let root = ref 0 in
  let out, host_ns =
    timed (fun () ->
        with_span ~run ~parent:(-1) "run" (fun root_id ->
            root := root_id;
            let span name f = with_span ~run ~parent:root_id name (fun _ -> f ()) in
            let obs = Run.worker_recorder w in
            Obs.Recorder.alloc_begin obs;
            span "rewind" (fun () -> Run.rewind w cfg);
            Hv.new_flight_epoch w.Run.w_hv;
            let st = Run.make_state cfg w.Run.w_rng w.Run.w_hv in
            let hv = st.Run.hv in
            let entries0 = hv.Hv.cycles.Hyper.Cycle_account.entries in
            let initial_app_domids = span "warmup" (fun () -> Run.warmup_prepared st) in
            let detection =
              span "inject" (fun () ->
                  Obs.Recorder.alloc_phase obs Obs.Recorder.Injection;
                  Run.arm_fault st;
                  let d =
                    try
                      for _ = 1 to cfg.Run.post_activities do
                        Run.run_one_activity st
                      done;
                      None
                    with Hyper.Crash.Hypervisor_crash d -> Some d
                  in
                  hv.Hv.step_hook <- None;
                  d)
            in
            let out =
              match detection with
              | None ->
                let any_sdc =
                  List.exists
                    (fun (d : Hyper.Domain.t) ->
                      d.Hyper.Domain.guest_sdc || d.Hyper.Domain.guest_failed)
                    (Hv.app_domains hv)
                in
                if any_sdc then Run.Silent_corruption else Run.Non_manifested
              | Some det -> (
                let faulted_cpu = st.Run.last_cpu in
                span "detect" (fun () ->
                    Obs.Recorder.alloc_phase obs Obs.Recorder.Detection;
                    Sim.Clock.advance_by hv.Hv.clock
                      (Hyper.Crash.detection_latency ~config:hv.Hv.config det);
                    ignore (Run.abandon_concurrent_work st ~faulted_cpu);
                    Run.enter_detection_context st);
                let recovered =
                  match cfg.Run.mech with
                  | Run.No_recovery -> Error "no recovery mechanism"
                  | Run.Mech (mechanism, enh) -> (
                    assert (enh = Recovery.Enhancement.full_set);
                    Obs.Recorder.alloc_phase obs Obs.Recorder.Recovery;
                    match timed_recover span mechanism hv ~detected_on:faulted_cpu with
                    | o, info ->
                      rec_info := Some info;
                      Ok o
                    | exception Hyper.Crash.Hypervisor_crash d -> Error (Hyper.Crash.describe d))
                in
                match recovered with
                | Error why ->
                  Run.Detected
                    {
                      Run.detection = det;
                      recovered = false;
                      app_vms_affected = List.length initial_app_domids;
                      new_vm_ok = false;
                      success = false;
                      no_vmf = false;
                      recovery_latency = 0;
                      breakdown = None;
                      failure_reason = Some ("recovery aborted: " ^ why);
                    }
                | Ok recovery ->
                  let hv_ok, new_vm_ok, reason =
                    span "post_recovery" (fun () -> Run.post_recovery_phase st)
                  in
                  let app_vms_affected =
                    if hv_ok then Run.count_affected_app_vms st ~initial_app_domids
                    else List.length initial_app_domids
                  in
                  Run.Detected
                    {
                      Run.detection = det;
                      recovered = hv_ok;
                      app_vms_affected;
                      new_vm_ok;
                      success = hv_ok && new_vm_ok && app_vms_affected <= 1;
                      no_vmf = hv_ok && new_vm_ok && app_vms_affected = 0;
                      recovery_latency = recovery.Recovery.Engine.latency;
                      breakdown = Some recovery.Recovery.Engine.breakdown;
                      failure_reason = reason;
                    })
            in
            counts := run_counters hv ~entries0;
            out))
  in
  let stage_ns, stage_words = stage_stats !root in
  let activities, hypercalls, retries, journal_writes, dirty = !counts in
  ( out,
    { host_ns; stage_ns; stage_words; activities; hypercalls; retries; journal_writes; dirty;
      recovery = !rec_info; requests = 0 } )

(* Tallies a fleet trial produces; compared against [Fleet.run_trial]'s
   snapshot for the same seed. *)
type fleet_tally = {
  ft_requests : int;
  ft_stalled : int;
  ft_violations : int;
  ft_failed : int;
  ft_lost : int;
  ft_latency : int;
  ft_request_sum : int;
}

let tally_of_snapshot s =
  {
    ft_requests = counter s "fleet.requests";
    ft_stalled = counter s "fleet.requests_stalled";
    ft_violations = counter s "fleet.slo_violations";
    ft_failed = counter s "fleet.tenants_failed";
    ft_lost = counter s "fleet.net_lost";
    ft_latency = hist_sum s "fleet.recovery_ns";
    ft_request_sum = hist_sum s "fleet.request_ns";
  }

(* The boot and tenant population of a [Fleet.run_trial]. *)
let fleet_boot (cfg : Fleet.config) mech =
  Hv.boot ~mconfig:Hw.Machine.campaign_config
    ~obs:(Obs.Recorder.create ~capacity:64 ~min_level:Obs.Event.Error ())
    ~config:(Fleet.hv_config mech) ~setup:(Hv.Tenant_fleet cfg.Fleet.tenants) (Sim.Clock.create ())

let fleet_loads (cfg : Fleet.config) =
  let kinds =
    [| Workloads.Workload.Netbench; Workloads.Workload.Unixbench; Workloads.Workload.Blkbench |]
  in
  Array.init cfg.Fleet.tenants (fun i ->
      Workloads.Workload.create kinds.(i mod Array.length kinds) ~domid:(i + 1))

(* Replay one [Fleet.run_trial] stage by stage: boot, warmup (ending at
   the golden snapshot), victim damage, recovery, request accounting.
   Serial mechanisms only. *)
let replay_fleet (cfg : Fleet.config) mech ~seed =
  let run = Int64.to_int seed in
  let root = ref 0 in
  let result = ref None in
  let (), host_ns =
    timed (fun () ->
        with_span ~run ~parent:(-1) "run" (fun root_id ->
            root := root_id;
            let span name f = with_span ~run ~parent:root_id name (fun _ -> f ()) in
            let rng = Sim.Rng.create seed in
            let hv = span "boot" (fun () -> fleet_boot cfg mech) in
            let clock = hv.Hv.clock in
            let entries0 = hv.Hv.cycles.Hyper.Cycle_account.entries in
            span "warmup" (fun () ->
                let loads = fleet_loads cfg in
                for _ = 1 to cfg.Fleet.warmup_activities do
                  Sim.Clock.advance_by clock (Sim.Time.us (20 + Sim.Rng.int rng 180));
                  let w = loads.(Sim.Rng.int rng cfg.Fleet.tenants) in
                  Hv.execute hv rng (Workloads.Workload.sample_activity rng w)
                done;
                ignore (Hv.snapshot hv));
            span "inject" (fun () ->
                let victims = max 1 (min cfg.Fleet.victims cfg.Fleet.tenants) in
                let off = Sim.Rng.int rng cfg.Fleet.tenants in
                let victim_ids =
                  List.sort_uniq compare
                    (List.init victims (fun k ->
                         1 + ((off + (k * cfg.Fleet.tenants / victims)) mod cfg.Fleet.tenants)))
                in
                let n_frames = Hv.frames hv in
                List.iter
                  (fun domid ->
                    let left = ref cfg.Fleet.frames_per_victim in
                    let i = ref 0 in
                    while !left > 0 && !i < n_frames do
                      let d = Hyper.Pfn.get hv.Hv.pfn !i in
                      if d.Hyper.Pfn.owner = domid && d.Hyper.Pfn.use_count > 0 then begin
                        Hyper.Pfn.touch d;
                        d.Hyper.Pfn.use_count <- 0;
                        decr left
                      end;
                      incr i
                    done)
                  victim_ids);
            let fault_time = Sim.Clock.now clock in
            let o, info = timed_recover span Recovery.Engine.Nilihype hv ~detected_on:0 in
            let latency = o.Recovery.Engine.latency in
            let t =
              span "post_recovery" (fun () ->
                  let requests = ref 0 and stalled = ref 0 and violations = ref 0 in
                  let failed_t = ref 0 and lost = ref 0 and req_sum = ref 0 in
                  for _t = 0 to cfg.Fleet.tenants - 1 do
                    let stall_end = fault_time + latency in
                    let net = Guest.Netstack.create ~interval:cfg.Fleet.request_interval () in
                    let phase = Sim.Rng.int rng (max 1 cfg.Fleet.request_interval) in
                    let arrival = ref (fault_time - cfg.Fleet.pre_window + phase) in
                    while !arrival <= fault_time + cfg.Fleet.post_window do
                      let a = !arrival in
                      let service = Sim.Time.us (30 + Sim.Rng.int rng 200) in
                      let lat =
                        if a >= fault_time && a < stall_end then begin
                          incr stalled;
                          stall_end - a + service
                        end
                        else begin
                          Guest.Netstack.sender_tick net ~now:a ~delivered:true;
                          service
                        end
                      in
                      req_sum := !req_sum + lat;
                      incr requests;
                      if lat > cfg.Fleet.slo then incr violations;
                      arrival := a + cfg.Fleet.request_interval
                    done;
                    Guest.Netstack.interruption net ~now:fault_time ~duration:latency;
                    if Guest.Netstack.failed net then incr failed_t;
                    lost := !lost + (net.Guest.Netstack.sent - net.Guest.Netstack.echoed)
                  done;
                  {
                    ft_requests = !requests;
                    ft_stalled = !stalled;
                    ft_violations = !violations;
                    ft_failed = !failed_t;
                    ft_lost = !lost;
                    ft_latency = latency;
                    ft_request_sum = !req_sum;
                  })
            in
            result := Some (t, run_counters hv ~entries0, info)))
  in
  let stage_ns, stage_words = stage_stats !root in
  match !result with
  | None -> assert false
  | Some (t, (activities, hypercalls, retries, journal_writes, dirty), rinfo) ->
    ( t,
      { host_ns; stage_ns; stage_words; activities; hypercalls; retries; journal_writes; dirty;
        recovery = Some rinfo; requests = t.ft_requests } )

(* ------------------------------------------------------------------ *)
(* Per-structure timings on a warmed machine                            *)
(* ------------------------------------------------------------------ *)

(* Time each structure call on [reps] warmed machines. [warmed ()]
   boots a machine, drives its workload (dirtying state since the boot
   snapshot) and returns it with activities to time [Hypervisor.execute]
   on. A fresh machine per repetition: the timed snapshot moves the
   machine's golden baseline. Returns (metric, unit, median, calls). *)
let structure_timings ~reps ~(warmed : unit -> Hv.t * Hv.activity array * Sim.Rng.t) =
  let acc = Hashtbl.create 16 in
  let add k v = Hashtbl.replace acc k (v :: Option.value ~default:[] (Hashtbl.find_opt acc k)) in
  let t_us k f = add k (snd (timed f) /. 1e3) in
  for _ = 1 to reps do
    let hv, acts, rng = warmed () in
    t_us "pfn.dirty_scan_us" (fun () -> ignore (Hyper.Pfn.scan_and_fix_dirty hv.Hv.pfn));
    t_us "pfn.full_scan_us" (fun () -> ignore (Hyper.Pfn.scan_and_fix hv.Hv.pfn));
    t_us "pfn.count_inconsistent_us" (fun () -> ignore (Hyper.Pfn.count_inconsistent hv.Hv.pfn));
    t_us "heap.audit_us" (fun () -> ignore (Hyper.Heap.audit hv.Hv.heap));
    t_us "timer_heap.check_us" (fun () -> ignore (Hyper.Timer_heap.heap_property_holds hv.Hv.timers));
    t_us "audit.us" (fun () -> ignore (Hv.audit hv));
    let image, ns = timed (fun () -> Hv.snapshot hv) in
    add "hyper.snapshot_us" (ns /. 1e3);
    Array.iter
      (fun a ->
        let (), ns = timed (fun () -> Hv.execute hv rng a) in
        add "hyper.execute_ns" ns)
      acts;
    t_us "hyper.restore_us" (fun () -> Hv.restore hv image)
  done;
  List.map
    (fun (k, u) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt acc k) in
      (k, u, median l, List.length l))
    [
      ("pfn.full_scan_us", "us"); ("pfn.dirty_scan_us", "us"); ("pfn.count_inconsistent_us", "us");
      ("heap.audit_us", "us"); ("timer_heap.check_us", "us"); ("audit.us", "us");
      ("hyper.snapshot_us", "us"); ("hyper.restore_us", "us"); ("hyper.execute_ns", "ns");
    ]

(* ------------------------------------------------------------------ *)
(* Host-speed normalisation                                            *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by a fifth or more between runs a minute
   apart, and within a run from one block to the next. So every timed
   call is paired with calls of a fixed reference computation made right
   next to it, and its host time is expressed in reference calls, then
   converted to seconds on a nominal host that makes
   [nominal_reference_per_s] reference calls a second. The timed runs
   are cut into small blocks run over and over, and each block counts at
   its median repetition. The reference is defined here and shares no
   code with the repository, so a change to the repository's code moves
   the scaled figures while the host's speed cancels out. A change to
   the compiler flags would move both sides and cancel too. *)
type cell = { mutable a : int; mutable b : int; mutable tag : bool }

let cells = Array.init 65536 (fun i -> { a = i; b = i land 7; tag = false })

(* Roughly the mix a run performs: walks over a large array of small
   mutable records, short-lived allocation and hash-table updates. *)
let reference_call () =
  let acc = ref 0 in
  for _ = 1 to 4 do
    Array.iter
      (fun c ->
        if c.tag <> (c.a land 3 = 0) then incr acc;
        c.tag <- c.b > 3;
        c.b <- (c.b + 1) land 7)
      cells
  done;
  let l = ref [] in
  for i = 1 to 20_000 do
    l := (i, i) :: !l;
    if i mod 64 = 0 then l := []
  done;
  let h = Hashtbl.create 64 in
  for i = 1 to 5_000 do
    Hashtbl.replace h (i land 511) i
  done;
  !acc + Hashtbl.length h

let nominal_reference_per_s = 500.0
let reference_times = ref [] (* host seconds of every reference call *)

(* The fastest of [calls] reference calls, in host seconds. *)
let reference ~calls =
  List.fold_left Float.min infinity
    (List.init calls (fun _ ->
         let _, ns = timed (fun () -> Sys.opaque_identity (reference_call ())) in
         reference_times := (ns /. 1e9) :: !reference_times;
         ns /. 1e9))

type paired = { host_s : float; nominal_s : float }

(* [f ()] and its host seconds, both as measured and on the nominal host,
   with [calls] reference calls next to it: before on even [i], after on
   odd, so drift within the pair does not favour one side. *)
let paired ~i ~calls f =
  let before = if i mod 2 = 0 then reference ~calls else nan in
  let x, ns = timed f in
  let ref_s = if i mod 2 = 1 then reference ~calls else before in
  let host_s = ns /. 1e9 in
  (x, { host_s; nominal_s = host_s /. (ref_s *. nominal_reference_per_s) })

(* The GC's top heap so far. Read before the timed blocks: their number
   depends on the host's speed, the allocation before them only on the
   seed. *)
let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Untraced (end-to-end) run                                            *)
(* ------------------------------------------------------------------ *)

let setup_reps = 9
let block_reference_calls = 2

(* Run the [n_blocks] timed blocks in cycles until [seconds] have passed,
   at least three cycles. [run_block b] runs block [b] and returns its
   result; [first b r] sees each block's result on the first cycle.
   Returns the summed per-block medians over the cycles, host and
   nominal seconds, and the cycle count. *)
let timed_cycles ~n_blocks ~seconds ~run_block ~first =
  let times = Array.make n_blocks [] in
  let t_start = now_ns () in
  let cycles = ref 0 in
  while !cycles < 3 || since t_start < seconds *. 1e9 do
    for b = 0 to n_blocks - 1 do
      match paired ~i:b ~calls:block_reference_calls (fun () -> run_block b) with
      | Some r, p ->
        times.(b) <- p :: times.(b);
        if !cycles = 0 then first b r
      | None, _ -> ()
    done;
    incr cycles
  done;
  let total f = Array.fold_left (fun acc l -> acc +. median (List.map f l)) 0.0 times in
  ({ host_s = total (fun p -> p.host_s); nominal_s = total (fun p -> p.nominal_s) }, !cycles)

type e2e = {
  setup_s : paired list; (* every set-up *)
  results : result list; (* the fixed per-seed sample *)
  timed_s : paired; (* one cycle of the timed blocks, at each block's median *)
  cycles : int;
  runs_timed : int; (* runs in one cycle of the timed blocks *)
  words_per_run : float; (* over the first cycle *)
  peak_heap_mb : float; (* top heap after the set-ups and the per-seed sample *)
  extra : (string * float * string) list; (* printed, not in the JSON *)
}

let campaign_e2e (cfg : Run.config) (sz : sizes) ~base ~seconds ~perturb =
  let setups =
    List.init setup_reps (fun i -> paired ~i ~calls:5 (fun () -> Campaign.prepare_pool ~jobs:1 cfg))
  in
  let pool = fst (List.nth setups (setup_reps - 1)) in
  let setup_s = List.map snd setups in
  let seed_of i = Int64.add base (Int64.of_int i) in
  (* The fixed sample, one [Run.execute_into] per seed, aggregated the
     way [Campaign.run] aggregates. *)
  let w = pool.Campaign.p_workers.(0) in
  let per_seed = Campaign.make_totals () in
  let results =
    List.filter_map
      (fun i ->
        op "run" (fun () ->
            let out = Run.execute_into w { cfg with Run.seed = seed_of i } in
            if i < sz.timed then begin
              Campaign.add_outcome per_seed out;
              per_seed.Campaign.metrics <-
                Obs.Metrics.merge_snapshots per_seed.Campaign.metrics
                  (Obs.Recorder.metrics_snapshot (Run.worker_recorder w))
            end;
            result_of_outcome out))
      (List.init sz.sample Fun.id)
  in
  let peak_heap_mb = top_heap_mb () in
  (* The timed blocks: [Campaign.run] at jobs=1 over the sample's first
     [sz.timed] seeds, [sz.block] seeds a call. *)
  let n_blocks = sz.timed / sz.block in
  let check_blocks = sz.jobs_check / sz.block in
  let timed_totals = Campaign.make_totals () in
  let check_totals = Campaign.make_totals () in
  let words = ref 0.0 in
  let timed_s, cycles =
    timed_cycles ~n_blocks ~seconds
      ~run_block:(fun b ->
        op ~n:sz.block "Campaign.run" (fun () ->
            let w0 = Gc.minor_words () in
            let r = Campaign.run ~pool ~jobs:1 ~base_seed:(seed_of (b * sz.block)) ~n:sz.block cfg in
            (r, Gc.minor_words () -. w0)))
      ~first:(fun b (r, dw) ->
        words := !words +. dw;
        Campaign.merge_into timed_totals r.Campaign.totals;
        if b < check_blocks then Campaign.merge_into check_totals r.Campaign.totals)
  in
  check "campaign aggregate equals the per-seed runs"
    (Campaign.snapshot timed_totals = Campaign.snapshot per_seed)
    (Format.asprintf "campaign %a vs per-seed %a" Campaign.pp_snapshot
       (Campaign.snapshot timed_totals) Campaign.pp_snapshot (Campaign.snapshot per_seed));
  (match
     op ~n:sz.jobs_check "Campaign.run jobs=2" (fun () ->
         Campaign.run ~jobs:2 ~base_seed:base ~n:sz.jobs_check cfg)
   with
  | Some r2 ->
    let s2 = Campaign.snapshot r2.Campaign.totals in
    let s2 = if perturb then { s2 with Campaign.s_successes = s2.Campaign.s_successes + 1 } else s2 in
    check
      (Printf.sprintf "aggregate identical at jobs=1 and jobs=2 (%d runs, jobs=2 used %d)"
         sz.jobs_check r2.Campaign.jobs)
      (s2 = Campaign.snapshot check_totals)
      (Format.asprintf "jobs=1 %a vs jobs=2 %a" Campaign.pp_snapshot
         (Campaign.snapshot check_totals) Campaign.pp_snapshot s2)
  | None -> ());
  {
    setup_s;
    results;
    timed_s;
    cycles;
    runs_timed = n_blocks * sz.block;
    words_per_run = !words /. float_of_int (n_blocks * sz.block);
    peak_heap_mb;
    extra = [];
  }

let fleet_e2e (fcfg : Fleet.config) mech (sz : sizes) ~base ~seconds ~perturb =
  let setup_s = List.init setup_reps (fun i -> snd (paired ~i ~calls:5 (fun () -> fleet_boot fcfg mech))) in
  let seed_of i = Int64.add base (Int64.of_int i) in
  let per_seed = ref Obs.Metrics.empty_snapshot in
  let results =
    List.filter_map
      (fun i ->
        op "Fleet.run_trial" (fun () ->
            let s = Fleet.run_trial fcfg mech ~seed:(seed_of i) in
            if i < sz.timed then per_seed := Obs.Metrics.merge_snapshots !per_seed s;
            let t = tally_of_snapshot s in
            (s, { detected = true; success = t.ft_failed = 0; latency_ns = t.ft_latency })))
      (List.init sz.sample Fun.id)
  in
  let agg = List.fold_left (fun a (s, _) -> Obs.Metrics.merge_snapshots a s) Obs.Metrics.empty_snapshot results in
  let results = List.map snd results in
  let peak_heap_mb = top_heap_mb () in
  let n_blocks = sz.timed / sz.block in
  let check_blocks = sz.jobs_check / sz.block in
  let timed_agg = ref Obs.Metrics.empty_snapshot in
  let check_agg = ref Obs.Metrics.empty_snapshot in
  let words = ref 0.0 in
  let timed_s, cycles =
    timed_cycles ~n_blocks ~seconds
      ~run_block:(fun b ->
        op ~n:sz.block "Fleet.run" (fun () ->
            let w0 = Gc.minor_words () in
            let r =
              Fleet.run ~jobs:1
                { fcfg with Fleet.trials = sz.block; base_seed = seed_of (b * sz.block) }
                mech
            in
            (r, Gc.minor_words () -. w0)))
      ~first:(fun b (r, dw) ->
        words := !words +. dw;
        timed_agg := Obs.Metrics.merge_snapshots !timed_agg r.Fleet.metrics;
        if b < check_blocks then check_agg := Obs.Metrics.merge_snapshots !check_agg r.Fleet.metrics)
  in
  check "fleet aggregate equals the per-seed trials"
    (without_gap !timed_agg = without_gap !per_seed)
    "merged Fleet.run blocks differ from the merged run_trial snapshots";
  (match
     op ~n:sz.jobs_check "Fleet.run jobs=2" (fun () ->
         Fleet.run ~jobs:2 { fcfg with Fleet.trials = sz.jobs_check; base_seed = base } mech)
   with
  | Some r2 ->
    let s2 = without_gap r2.Fleet.metrics in
    let s2 =
      if perturb then
        { s2 with
          Obs.Metrics.counters =
            List.map (fun (n, v) -> if n = "fleet.requests" then (n, v + 1) else (n, v))
              s2.Obs.Metrics.counters }
      else s2
    in
    check
      (Printf.sprintf "fleet aggregate identical at jobs=1 and jobs=2 (%d trials)" sz.jobs_check)
      (s2 = without_gap !check_agg) "jobs=1 and jobs=2 fleet snapshots differ"
  | None -> ());
  let t = tally_of_snapshot agg in
  check "every fleet recovery took the incremental scan"
    (counter agg "recovery.pfn_scan.incremental" = List.length results
    && counter agg "recovery.pfn_scan.full" = 0)
    (Printf.sprintf "incremental=%d full=%d trials=%d"
       (counter agg "recovery.pfn_scan.incremental") (counter agg "recovery.pfn_scan.full")
       (List.length results));
  let p99 =
    match hist agg "fleet.request_ns" with
    | Some h -> hist_quantile h (tail_q h.Obs.Metrics.h_samples) /. 1e3
    | None -> nan
  in
  let trials_per_s = float_of_int (n_blocks * sz.block) /. timed_s.nominal_s in
  {
    setup_s;
    results;
    timed_s;
    cycles;
    runs_timed = n_blocks * sz.block;
    words_per_run = !words /. float_of_int (n_blocks * sz.block);
    peak_heap_mb;
    extra =
      [
        ("trials_per_s", trials_per_s, "trials/s");
        ("sim_request_p99_us", p99, "sim_us");
        ("sim_request_samples", float_of_int t.ft_requests, "count");
        ("sim_slo_violation_frac", ratio t.ft_violations t.ft_requests, "fraction");
        ("tenants_failed", float_of_int t.ft_failed, "count");
      ];
  }

(* NiLiHype's simulated recovery latency on the same seeds, for the
   ReHype/NiLiHype ratio check on the microreboot workload. *)
let nilihype_reference_ms (cfg : Run.config) ~base ~n =
  let cfg =
    {
      cfg with
      Run.mech = Run.Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
      hv_config = at_reference Hyper.Config.nilihype;
    }
  in
  let w = Run.prepare cfg in
  let lat =
    List.filter_map
      (fun i ->
        match Run.execute_into w { cfg with Run.seed = Int64.add base (Int64.of_int i) } with
        | Run.Detected d when d.Run.recovery_latency > 0 ->
          Some (float_of_int d.Run.recovery_latency /. 1e6)
        | _ -> None)
      (List.init n Fun.id)
  in
  median lat

let untraced wl sz ~seed ~seconds ~perturb =
  let base = base_seed seed in
  let e =
    match wl.kind with
    | Campaign_wl cfg -> campaign_e2e cfg sz ~base ~seconds ~perturb
    | Fleet_wl (f, mech) -> fleet_e2e f mech sz ~base ~seconds ~perturb
  in
  let detected = List.filter (fun r -> r.detected) e.results in
  let lat_ms =
    List.filter_map
      (fun r -> if r.latency_ns > 0 then Some (float_of_int r.latency_ns /. 1e6) else None)
      detected
  in
  let n_lat = List.length lat_ms in
  let tq = tail_q n_lat in
  let success = ratio (List.length (List.filter (fun r -> r.success) detected)) (List.length detected) in
  let p50 = median lat_ms and ptail = quantile tq lat_ms in
  let runs = float_of_int e.runs_timed in
  emit "runs_per_s" "1/s" (runs /. e.timed_s.nominal_s);
  emit "setup_s" "s" (median (List.map (fun p -> p.nominal_s) e.setup_s));
  emit "alloc_words_per_run" "words" e.words_per_run;
  emit "peak_heap_mb" "MB" e.peak_heap_mb;
  emit "success_rate" "fraction" success;
  emit "sim_recovery_ms_p50" "sim_ms" p50;
  emit "sim_recovery_ms_p99" "sim_ms" ptail;
  Printf.printf "sample: %d runs, %d detected, %d recovery-latency samples (tail = p%.1f)\n"
    (List.length e.results) (List.length detected) n_lat (100.0 *. tq);
  Printf.printf
    "timed: %d runs, %d cycles; as measured on this host: %.1f runs/s, setup %.4f s; reference \
     call median %.3f ms over %d calls (nominal host %.3f ms)\n"
    e.runs_timed e.cycles (runs /. e.timed_s.host_s)
    (median (List.map (fun p -> p.host_s) e.setup_s))
    (median !reference_times *. 1e3) (List.length !reference_times)
    (1e3 /. nominal_reference_per_s);
  (* Accuracy against the paper. *)
  (match wl.paper_success with
  | Some (p, src) ->
    Printf.printf "accuracy: success_rate %.4f vs %.3f (%s; held out, not calibrated)\n" success p src
  | None -> Printf.printf "accuracy: success_rate %.4f (no paper reference: the fleet is beyond the paper)\n" success);
  (match wl.paper_latency_ms with
  | Some (p, src) ->
    Printf.printf "accuracy: sim_recovery_ms_p50 %.3f ms vs %.0f ms (%s; calibrated, not validation)\n" p50 p src
  | None -> Printf.printf "accuracy: sim_recovery_ms_p50 %.3f ms (no paper reference)\n" p50);
  (* The paper's shape. *)
  (match wl.kind with
  | Campaign_wl cfg -> (
    match cfg.Run.mech with
    | Run.Mech (Recovery.Engine.Nilihype, _) ->
      check "NiLiHype 3AppVM success >= 88%" (success >= 0.88) (Printf.sprintf "%.4f" success)
    | Run.Mech (Recovery.Engine.Rehype, _) ->
      let nl = nilihype_reference_ms cfg ~base ~n:(min 50 (List.length e.results)) in
      let r = p50 /. nl in
      Printf.printf "accuracy: ReHype/NiLiHype sim latency ratio %.1fx vs >30x (Tables II/III)\n" r;
      check "ReHype/NiLiHype sim latency ratio > 30x" (r > 30.0) (Printf.sprintf "%.1fx" r)
    | Run.No_recovery -> ())
  | Fleet_wl _ -> ());
  List.iter (fun (n, v, u) -> Printf.printf "fleet: %s = %.6g %s\n" n v u) e.extra

(* ------------------------------------------------------------------ *)
(* Traced (per-layer) run                                               *)
(* ------------------------------------------------------------------ *)

(* Interleaved jobs=1 / jobs=2 pairs of the workload's public entry
   point: the median ratio of their wall times. *)
let pool_speedup ~reps ~(j1 : unit -> unit) ~(j2 : unit -> unit) =
  median
    (List.init reps (fun i ->
         let a, b =
           if i mod 2 = 0 then
             let a = snd (timed j1) in
             (a, snd (timed j2))
           else
             let b = snd (timed j2) in
             (snd (timed j1), b)
         in
         a /. b))

(* Idle share of the [Inject.Pool] worker slots at jobs=2: one minus the
   time spent inside [body] over (slots x wall). *)
let pool_idle ~n ~(body : int -> int -> unit) =
  let busy = Array.make 2 0.0 in
  let _, wall =
    timed (fun () ->
        Inject.Pool.map_reduce ~jobs:2 ~n
          ~init:(fun slot -> slot)
          ~body:(fun slot i -> busy.(slot) <- busy.(slot) +. snd (timed (fun () -> body slot i)))
          ~merge:(fun a _ -> a)
          ())
  in
  let used = if busy.(1) > 0.0 then 2.0 else 1.0 in
  1.0 -. ((busy.(0) +. busy.(1)) /. (used *. wall))

(* Untraced/traced pairs of run [i] = 0, 1, ... until [seconds] have
   passed, at least [min] pairs. The side that runs first alternates, so
   host drift does not favour one. Returns the traced runs' stats, the
   traced/untraced host-time ratios, the pairs and the pairs whose
   outcomes differ. *)
let replay_pairs ~min ~seconds ~untraced ~traced =
  let stats = ref [] and ratios = ref [] and mismatches = ref 0 and i = ref 0 in
  let t_start = now_ns () in
  while !i < min || since t_start < seconds *. 1e9 do
    let k = !i in
    ignore
      (op "traced replay" (fun () ->
           let (u, u_ns), (t, st) =
             if k mod 2 = 0 then
               let u = timed (fun () -> untraced k) in
               (u, traced k)
             else
               let t = traced k in
               (timed (fun () -> untraced k), t)
           in
           if u <> t then incr mismatches;
           stats := st :: !stats;
           ratios := (st.host_ns /. u_ns) :: !ratios));
    incr i
  done;
  (!stats, !ratios, !i, !mismatches)

let traced wl sz ~seed ~seconds =
  let base = base_seed seed in
  let seed_of i = Int64.add base (Int64.of_int i) in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let (stats, overheads, pairs, mismatches), structures, speedup, idle =
    match wl.kind with
    | Campaign_wl cfg ->
      assert (cfg.Run.discard_scope = Run.Scope_all_threads && cfg.Run.setup = Run.Three_appvm);
      let w = Run.prepare cfg in
      let run i = { cfg with Run.seed = seed_of i } in
      let replays =
        replay_pairs ~min:sz.trace_min ~seconds
          ~untraced:(fun i -> Run.execute_into w (run i))
          ~traced:(fun i -> replay_campaign w (run i))
      in
      let structures =
        structure_timings ~reps:sz.structure_reps ~warmed:(fun () ->
            let c = { cfg with Run.seed = seed_of 0 } in
            let mw = Run.prepare c in
            let st = Run.make_state c mw.Run.w_rng mw.Run.w_hv in
            ignore (Run.warmup_prepared st);
            mw.Run.w_hv.Hv.step_hook <- None;
            ( mw.Run.w_hv,
              Array.init 200 (fun _ -> Workloads.System_mix.sample st.Run.rng st.Run.mix),
              st.Run.rng ))
      in
      let n = max 2 sz.jobs_check in
      let p1 = Campaign.prepare_pool ~jobs:1 cfg and p2 = Campaign.prepare_pool ~jobs:2 cfg in
      let go pool jobs () = ignore (Campaign.run ~pool ~jobs ~base_seed:base ~n cfg) in
      let speedup = pool_speedup ~reps:sz.pool_reps ~j1:(go p1 1) ~j2:(go p2 2) in
      let idle =
        pool_idle ~n ~body:(fun slot i ->
            ignore (Run.execute_into p2.Campaign.p_workers.(slot) { cfg with Run.seed = seed_of i }))
      in
      (replays, structures, speedup, idle)
    | Fleet_wl (fcfg, mech) ->
      let replays =
        replay_pairs ~min:sz.trace_min ~seconds
          ~untraced:(fun i -> tally_of_snapshot (Fleet.run_trial fcfg mech ~seed:(seed_of i)))
          ~traced:(fun i -> replay_fleet fcfg mech ~seed:(seed_of i))
      in
      let structures =
        structure_timings ~reps:sz.structure_reps ~warmed:(fun () ->
            let hv = fleet_boot fcfg mech in
            let rng = Sim.Rng.create 7L in
            let loads = fleet_loads fcfg in
            let sample () =
              Workloads.Workload.sample_activity rng loads.(Sim.Rng.int rng fcfg.Fleet.tenants)
            in
            for _ = 1 to fcfg.Fleet.warmup_activities do
              Sim.Clock.advance_by hv.Hv.clock (Sim.Time.us (20 + Sim.Rng.int rng 180));
              Hv.execute hv rng (sample ())
            done;
            (hv, Array.init 200 (fun _ -> sample ()), rng))
      in
      let n = max 2 sz.jobs_check in
      let go jobs () =
        ignore (Fleet.run ~jobs { fcfg with Fleet.trials = n; base_seed = base } mech)
      in
      let speedup = pool_speedup ~reps:sz.pool_reps ~j1:(go 1) ~j2:(go 2) in
      let idle =
        pool_idle ~n ~body:(fun _ i -> ignore (Fleet.run_trial fcfg mech ~seed:(seed_of i)))
      in
      (replays, structures, speedup, idle)
  in
  let runs = List.length stats in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  check
    (Printf.sprintf "traced stage replay reproduces the untraced outcome (%d seeds)" pairs)
    (mismatches = 0 && runs = pairs)
    (Printf.sprintf "%d of %d seeds differ, %d replays failed" mismatches pairs (pairs - runs));
  let all = stats in
  (* Median stage time over the runs that reached the stage. *)
  let stage_us name =
    match List.filter_map (fun s -> List.assoc_opt name s.stage_ns) all with
    | [] -> 0.0
    | l -> median l /. 1e3
  in
  let rewind_name = match wl.kind with Campaign_wl _ -> "rewind" | Fleet_wl _ -> "boot" in
  let host_ms = List.map (fun s -> s.host_ns /. 1e6) all in
  let recs = List.filter_map (fun s -> s.recovery) all in
  let n_rec = List.length recs in
  let meanf f l = mean (List.map f l) in
  emit "run.host_ms_p50" "ms" (median host_ms);
  emit "run.host_ms_p99" "ms" (quantile (tail_q runs) host_ms);
  emit "run.samples" "count" (float_of_int runs);
  emit "run.rewind_us" "us" (stage_us rewind_name);
  emit "run.warmup_us" "us" (stage_us "warmup");
  emit "run.inject_us" "us" (stage_us "inject");
  emit "run.post_recovery_us" "us" (stage_us "post_recovery");
  let emit_structure k =
    let n, u, v, _ = List.find (fun (n, _, _, _) -> n = k) structures in
    emit n u v
  in
  emit_structure "hyper.restore_us";
  emit_structure "hyper.snapshot_us";
  emit "hyper.dirty_frames" "count" (meanf (fun s -> let a, _, _ = s.dirty in float_of_int a) all);
  emit "hyper.dirty_heap" "count" (meanf (fun s -> let _, b, _ = s.dirty in float_of_int b) all);
  emit "hyper.dirty_timers" "count" (meanf (fun s -> let _, _, c = s.dirty in float_of_int c) all);
  emit "hyper.activities_per_run" "count" (meanf (fun s -> float_of_int s.activities) all);
  emit_structure "hyper.execute_ns";
  emit "hyper.hypercalls_per_run" "count" (meanf (fun s -> float_of_int s.hypercalls) all);
  emit "hyper.hypercall_retry_frac" "fraction"
    (ratio (List.fold_left (fun a s -> a + s.retries) 0 all)
       (List.fold_left (fun a s -> a + s.hypercalls) 0 all));
  emit "hyper.journal_writes_per_run" "count" (meanf (fun s -> float_of_int s.journal_writes) all);
  emit_structure "pfn.full_scan_us";
  emit_structure "pfn.dirty_scan_us";
  emit_structure "pfn.count_inconsistent_us";
  let sum f = List.fold_left (fun a r -> a + f r) 0 recs in
  emit "pfn.fix_yield" "fraction" (ratio (sum (fun r -> r.r_fixed)) (sum (fun r -> r.r_scanned)));
  emit_structure "audit.us";
  emit_structure "heap.audit_us";
  emit_structure "timer_heap.check_us";
  let rmedian f = match recs with [] -> 0.0 | _ -> median (List.map f recs) in
  emit "recovery.host_us" "us" (rmedian (fun r -> r.r_host_ns /. 1e3));
  emit "recovery.sim_ms" "sim_ms" (rmedian (fun r -> float_of_int r.r_sim_ns /. 1e6));
  emit "recovery.full_scan_frac" "fraction" (ratio (List.length (List.filter (fun r -> r.r_full) recs)) n_rec);
  emit "recovery.pfn_fixed" "count" (mean (List.map (fun r -> float_of_int r.r_fixed) recs));
  emit "recovery.locks_released" "count" (mean (List.map (fun r -> float_of_int r.r_locks) recs));
  emit "pool.speedup_j2" "x" speedup;
  emit "pool.idle_frac" "fraction" idle;
  emit "fleet.requests_per_trial" "count" (meanf (fun s -> float_of_int s.requests) all);
  List.iter
    (fun st ->
      let name = if st = rewind_name then "rewind" else st in
      emit ("gc.minor_words." ^ name) "words"
        (meanf (fun s -> Option.value ~default:0.0 (List.assoc_opt st s.stage_words)) all))
    [ rewind_name; "warmup"; "inject"; "detect"; "recover"; "post_recovery" ];
  emit "gc.major_per_krun" "count" (1000.0 *. ratio major runs);
  emit "trace_overhead_frac" "fraction" (median overheads -. 1.0);
  (* Per-structure table and per-layer self time, for the reader. *)
  Printf.printf "per-structure timings on a warmed machine (median over calls):\n";
  List.iter (fun (n, u, v, calls) -> Printf.printf "  %-28s %12.3f %s  (%d calls)\n" n v u calls) structures;
  let selfs = self_times !spans in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace by_name s.sp_name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.sp_name)))
    selfs;
  Printf.printf "per-layer self time (median us over %d traced runs, recoveries: %d):\n" runs n_rec;
  Hashtbl.iter
    (fun n l -> Printf.printf "  %-16s %12.1f us  (%d spans)\n" n (median l /. 1e3) (List.length l))
    by_name

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and perturb = ref false in
  let commit = ref "unknown" and source_digest = ref "unknown" and out_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N benchmark seed (derives every run seed)");
      ("--seconds", Arg.Set_float seconds, "S how long the timed part measures");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--size", Arg.Set_string size, "full|tiny sample sizes (tiny is for the tests)");
      ("--perturb", Arg.Set perturb, " perturb the jobs=2 aggregate (the output check must trip)");
      ("--commit", Arg.Set_string commit, "ID commit recorded in the provenance");
      ("--source-digest", Arg.Set_string source_digest, "HEX source digest recorded in the provenance");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the result and span files are written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !seed < 0 || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline "need --seed N >= 0, --trace 0|1 and --seconds > 0";
    exit 2
  end;
  let sz = match !size with "tiny" -> tiny_of wl.full | _ -> wl.full in
  let cores = Domain.recommended_domain_count () in
  let prov =
    Printf.sprintf
      "{\"commit\": %s, \"source_digest\": %s, \"workload\": %s, \"seed\": %d, \"base_run_seed\": %Ld, \"config\": %s, \"jobs\": 1, \"check_jobs\": 2, \"cores\": %d, \"size\": %s, \"trace\": %d, \"seconds\": %g}"
      (json_string !commit) (json_string !source_digest) (json_string wl.name) !seed
      (base_seed !seed) (json_string (config_line wl)) cores (json_string !size) !trace !seconds
  in
  Printf.printf "provenance %s\n%!" prov;
  if !trace = 0 then untraced wl sz ~seed:!seed ~seconds:!seconds ~perturb:!perturb
  else traced wl sz ~seed:!seed ~seconds:!seconds;
  List.iter (fun (n, v, u) -> Printf.printf "metric %-32s %16.6g %s\n" n v u) (List.rev !metrics);
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then check ("metric " ^ n ^ " is finite") false "not a number")
    !metrics;
  Printf.printf "failed_frac = %.6g (%d of %d harness operations)\n" (ratio !failed !attempted)
    !failed !attempted;
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (!failed = 0) !attempted !failed (metrics_json ())
  in
  if !out_dir <> "" then begin
    let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out_dir wl.name !seed !trace in
    let oc = open_out (base ^ ".json") in
    Printf.fprintf oc "{\"provenance\": %s, \"result\": %s}\n" prov result;
    close_out oc;
    if !trace = 1 then write_spans (base ^ "-spans.json") prov
  end;
  print_endline result;
  exit (if !failed = 0 then 0 else 1)
