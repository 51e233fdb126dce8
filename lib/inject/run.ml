(** A single fault-injection run: boot the target system, run the
    benchmarks, inject one fault through the two-level trigger, let
    detection and recovery play out, then classify the outcome
    (Section VI-C / VII-A). *)

open Hyper

type setup = One_appvm of Workloads.Workload.kind | Three_appvm

type mech =
  | No_recovery
  | Mech of Recovery.Engine.mechanism * Recovery.Enhancement.set

(* Which execution threads microreset discards (the design choice of
   Section III-C). The paper's choice is all threads; the alternative --
   discard only the faulting CPU's thread -- leaves the surviving
   threads to collide with the recovery process's global state changes
   (released locks, cleared IRQ counts). *)
type discard_scope = Scope_all_threads | Scope_faulting_only

type config = {
  seed : int64;
  fault : Fault.t;
  setup : setup;
  mech : mech;
  hv_config : Config.t;
  mconfig : Hw.Machine.config;
  warmup_activities : int;
  post_activities : int;
  trigger_window_steps : int; (* second-level trigger range, in steps *)
  discard_scope : discard_scope;
  vcpus_per_cpu : int; (* >1 explores the paper's future-work configs *)
  directive : Fault.directive option;
      (* [Some d]: apply exactly the fault point [d] instead of sampling
         a manifestation -- the fuzzer's mutation hook. Post-warmup only,
         so runs sharing a seed share a warmup whatever their directives. *)
}

let default_config =
  {
    seed = 1L;
    fault = Fault.Failstop;
    setup = Three_appvm;
    mech = Mech (Recovery.Engine.Nilihype, Recovery.Enhancement.full_set);
    hv_config = Config.nilihype;
    mconfig = Hw.Machine.campaign_config;
    warmup_activities = 150;
    post_activities = 900;
    trigger_window_steps = 2000;
    discard_scope = Scope_all_threads;
    vcpus_per_cpu = 1;
    directive = None;
  }

type outcome =
  | Non_manifested
  | Silent_corruption
  | Detected of detected

and detected = {
  detection : Crash.detection;
  recovered : bool; (* the hypervisor survived and operates correctly *)
  app_vms_affected : int; (* initial AppVMs failed or corrupted *)
  new_vm_ok : bool; (* 3AppVM: post-recovery VM creation + BlkBench *)
  success : bool; (* the paper's per-setup success definition *)
  no_vmf : bool; (* detected errors with no AppVM failure at all *)
  recovery_latency : Sim.Time.ns;
  breakdown : Latency_model.breakdown option; (* per-phase recovery spans *)
  failure_reason : string option; (* why recovery failed, when it did *)
}

let outcome_class = function
  | Non_manifested -> `Non_manifested
  | Silent_corruption -> `Sdc
  | Detected _ -> `Detected

(* The one canonical outcome-class name, shared by display code, metric
   names and the [Outcome_classified] event payload. *)
let outcome_name = function
  | Non_manifested -> "non_manifested"
  | Silent_corruption -> "sdc"
  | Detected _ -> "detected"

(* Human-readable variant of the same classification. *)
let outcome_label = function
  | Non_manifested -> "non-manifested"
  | Silent_corruption -> "silent data corruption"
  | Detected _ -> "detected"

(* Mutable state threaded through a run. *)
type state = {
  cfg : config;
  rng : Sim.Rng.t;
  hv : Hypervisor.t;
  mix : Workloads.System_mix.t;
  benchmarks : Workloads.Workload.t list;
  mutable last_cpu : int; (* CPU of the most recent hypervisor step *)
  mutable fault_applied : bool;
  mutable first_target : string option;
      (* first structure the fault corrupted ("failstop" for pure
         crashes): the target axis of the failure signature *)
}

let hv_setup_of cfg =
  match cfg.setup with
  | One_appvm _ -> Hypervisor.One_appvm
  | Three_appvm -> Hypervisor.Three_appvm

(* Build the per-run state around an already-booted hypervisor. Shared by
   the fresh-boot path and the worker-reuse path, so both runs see the
   same benchmarks/mix construction. *)
let make_state cfg rng (hv : Hypervisor.t) =
  let vcpus = cfg.vcpus_per_cpu in
  let benchmarks =
    match cfg.setup with
    | One_appvm kind -> [ Workloads.Workload.create ~vcpus kind ~domid:1 ]
    | Three_appvm ->
      [
        Workloads.Workload.create ~vcpus Workloads.Workload.Unixbench ~domid:1;
        Workloads.Workload.create ~vcpus Workloads.Workload.Netbench ~domid:2;
      ]
  in
  let active_cpus =
    List.sort_uniq compare
      (List.concat_map
         (fun (d : Domain.t) ->
           Array.to_list d.Domain.vcpus
           |> List.map (fun (v : Domain.vcpu) -> v.Domain.processor))
         (List.filter
            (fun (d : Domain.t) -> not d.Domain.is_idle)
            (Hypervisor.all_domains hv)))
  in
  let blk_dom =
    List.find_opt (fun (b : Workloads.Workload.t) -> b.kind = Workloads.Workload.Blkbench) benchmarks
    |> Option.map (fun (b : Workloads.Workload.t) -> b.domid)
  in
  let net_dom =
    List.find_opt (fun (b : Workloads.Workload.t) -> b.kind = Workloads.Workload.Netbench) benchmarks
    |> Option.map (fun (b : Workloads.Workload.t) -> b.domid)
  in
  let mix =
    Workloads.System_mix.create ~benchmarks ~active_cpus ~blk_dom ~net_dom
  in
  {
    cfg;
    rng;
    hv;
    mix;
    benchmarks;
    last_cpu = 0;
    fault_applied = false;
    first_target = None;
  }

(* Boot the hypervisor for [cfg] on a fresh clock. The single boot
   construction shared by the fresh-boot path ([boot_state]), the worker
   path ([prepare]) and the worker's geometry-change rebuild, so all
   three see the same machine. *)
let boot_hv ?recorder (cfg : config) =
  let clock = Sim.Clock.create () in
  Hypervisor.boot ~mconfig:cfg.mconfig ?obs:recorder
    ~vcpus_per_cpu:cfg.vcpus_per_cpu ~config:cfg.hv_config
    ~setup:(hv_setup_of cfg) clock

let boot_state ?recorder cfg =
  make_state cfg (Sim.Rng.create cfg.seed) (boot_hv ?recorder cfg)

(* Execute one sampled activity. Activities are separated by an
   exponential-ish think-time ([think]) so software timer deadlines
   actually come due during a run. Timer ticks fire when the APIC
   deadline arrives, so the clock jumps there first; a CPU whose APIC is
   disarmed never gets another tick. Split in three so the bench's
   per-activity attribution can time the sample and the execution
   apart. *)
let think st =
  Sim.Clock.advance_by st.hv.Hypervisor.clock
    (Sim.Time.us (30 + Sim.Rng.int st.rng 340))

let execute_sampled st (activity : Hypervisor.activity) =
  match activity with
  | Hypervisor.Timer_tick cpu ->
    let apic = (Hw.Machine.cpu st.hv.Hypervisor.machine cpu).Hw.Cpu.apic in
    (match apic.Hw.Apic.timer_deadline with
    | None -> () (* disarmed: this CPU gets no more timer interrupts *)
    | Some d ->
      (* The tick happens when the one-shot deadline arrives. *)
      if d > Sim.Clock.now st.hv.Hypervisor.clock then
        Sim.Clock.advance_to st.hv.Hypervisor.clock d;
      Hypervisor.execute st.hv st.rng activity)
  | _ -> Hypervisor.execute st.hv st.rng activity

let run_one_activity st =
  think st;
  execute_sampled st (Workloads.System_mix.sample st.rng st.mix)

(* Track which CPU executes each step so detection knows where it was. *)
let install_cpu_tracker st =
  st.hv.Hypervisor.step_hook <-
    Some (fun _hv _activity _idx _name cpu -> st.last_cpu <- cpu)

(* Arm the two-level trigger: after [countdown] further hypervisor
   steps, the sampled manifestation is applied -- or, when the config
   carries a {!Fault.directive}, exactly that fault point. A directed
   fault draws the corruption's internal choices (which frame, which
   delta) from its own splitmix stream seeded by [d_payload] instead of
   the run stream: mutating the payload bits explores different concrete
   corruptions of the same target against the identical trigger state. *)
let arm_fault st =
  let directed = st.cfg.directive in
  let manifestation =
    match directed with
    | None -> Profile.sample_manifestation st.rng st.cfg.fault
    | Some d ->
      {
        Profile.corruptions = (if d.Fault.d_target >= 0 then 1 else 0);
        crash_now =
          (match d.Fault.d_crash with
          | Fault.Crash_none -> `No
          | Fault.Crash_panic -> `Panic
          | Fault.Crash_hang -> `Hang);
        guest_hit = false;
      }
  in
  let countdown =
    ref
      (match directed with
      | Some d -> 1 + (d.Fault.d_window mod max 1 st.cfg.trigger_window_steps)
      | None -> 1 + Sim.Rng.int st.rng st.cfg.trigger_window_steps)
  in
  st.hv.Hypervisor.step_hook <-
    Some
      (fun hv activity _idx step_name cpu ->
        st.last_cpu <- cpu;
        if not st.fault_applied then begin
          decr countdown;
          if !countdown <= 0 then begin
            st.fault_applied <- true;
            let note_fault target_name =
              if st.first_target = None then st.first_target <- Some target_name;
              Obs.Metrics.incr hv.Hypervisor.obs.Obs.Recorder.faults_injected;
              Obs.Recorder.event hv.Hypervisor.obs
                ~time:(Sim.Clock.now hv.Hypervisor.clock)
                ~cpu Obs.Event.Warn
                (Obs.Event.Fault_injected { target = target_name })
            in
            for _ = 1 to manifestation.Profile.corruptions do
              match directed with
              | Some d ->
                let target = Corrupt.of_index d.Fault.d_target in
                note_fault (Corrupt.name target);
                Corrupt.apply hv (Sim.Rng.create d.Fault.d_payload) target
              | None ->
                let target =
                  Profile.sample_corruption_target_for st.rng st.cfg.fault
                in
                note_fault (Corrupt.name target);
                Corrupt.apply hv st.rng target
            done;
            if manifestation.Profile.guest_hit then begin
              note_fault (Corrupt.name Corrupt.Guest_frame);
              Corrupt.apply hv st.rng Corrupt.Guest_frame
            end;
            (match manifestation.Profile.crash_now with
            | `Panic | `Hang -> note_fault "failstop"
            | `No -> ());
            match manifestation.Profile.crash_now with
            | `Panic ->
              Crash.panic "injected fault on cpu%d in %s/%s" cpu
                (Hypervisor.activity_name activity)
                step_name
            | `Hang ->
              Crash.hang "injected fault wedges cpu%d in %s" cpu
                (Hypervisor.activity_name activity)
            | `No -> ()
          end
        end)

(* Model the execution threads in flight on the *other* CPUs at
   detection: with some probability each was mid-request; its thread is
   abandoned with partial state in place. Returns the CPUs that were
   busy (needed by the Scope_faulting_only ablation). *)
let abandon_concurrent_work st ~faulted_cpu =
  let busy = ref [] in
  Array.iter
    (fun cpu ->
      if cpu <> faulted_cpu
         && Sim.Rng.float st.rng 1.0 < Profile.concurrent_busy_prob
      then begin
        busy := cpu :: !busy;
        let bench_on_cpu =
          List.find_opt
            (fun (b : Workloads.Workload.t) ->
              match Hypervisor.domain st.hv b.Workloads.Workload.domid with
              | Some d ->
                Array.exists
                  (fun (v : Domain.vcpu) -> v.Domain.processor = cpu)
                  d.Domain.vcpus
              | None -> false)
            st.benchmarks
        in
        let activity =
          match bench_on_cpu with
          | Some b when Sim.Rng.float st.rng 1.0 < 0.7 ->
            Workloads.Workload.sample_activity st.rng b
          | _ -> Hypervisor.Timer_tick cpu
        in
        let stop_at = Sim.Rng.int st.rng 14 in
        (* The concurrent thread may itself trip over state the fault
           already damaged (e.g. spin on a dead lock); either way it is
           abandoned here, partial state left in place. *)
        (try Hypervisor.execute_partial st.hv st.rng activity ~stop_at
         with Crash.Hypervisor_crash _ -> ())
      end)
    st.mix.Workloads.System_mix.active_cpus;
  !busy

(* The error-detection path runs in exception/NMI context on every CPU
   (the detecting CPU traps; the others are stopped by IPI), so each
   CPU's interrupt-nesting counter is bumped and stays bumped when the
   threads are discarded -- which is why "Clear IRQ count" is the very
   first enhancement needed. *)
let enter_detection_context st =
  Array.iter Percpu.irq_enter st.hv.Hypervisor.percpu

let count_affected_app_vms st ~initial_app_domids =
  List.fold_left
    (fun acc domid ->
      match Hypervisor.domain st.hv domid with
      | Some d -> if Domain.affected d then acc + 1 else acc
      | None -> acc + 1)
    0 initial_app_domids

(* Run the post-recovery phase: resume the VMs (retrying abandoned
   interactions), run the benchmarks to completion, and in the 3AppVM
   setup create the third AppVM and run BlkBench in it. Returns
   [(hv_ok, new_vm_ok)]. *)
let post_recovery_phase st =
  let hv = st.hv in
  (* The resumed benchmarks are workload again; the final audit gets its
     own allocation phase. *)
  Obs.Recorder.alloc_phase hv.Hypervisor.obs Obs.Recorder.Workload;
  let hv_ok = ref true in
  let new_vm_ok = ref true in
  let reason = ref None in
  let fail why = if !reason = None then reason := Some why in
  (try
     (* Retry interactions abandoned at detection. *)
     List.iter
       (fun (v : Domain.vcpu) ->
         if v.Domain.lost_work then begin
           (match Hypervisor.domain hv v.Domain.domid with
           | Some d -> d.Domain.guest_failed <- true
           | None -> ());
           v.Domain.lost_work <- false
         end;
         if v.Domain.retry_pending then Hypervisor.retry_hypercall hv st.rng v;
         if v.Domain.syscall_retry_pending then Hypervisor.retry_syscall hv v;
         if not v.Domain.fsgs_valid then begin
           (* Guest processes resumed with clobbered FS/GS crash. *)
           match Hypervisor.domain hv v.Domain.domid with
           | Some d -> d.Domain.guest_failed <- true
           | None -> ()
         end)
       (Hypervisor.all_vcpus hv);
     (* Interrupt vectors left in service block further delivery of that
        vector. A blocked timer vector is equivalent to a disarmed APIC
        (the CPU starves); blocked device vectors stall the paravirtual
        I/O of every VM, failing the benchmarks. *)
     Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
         let in_service = c.Hw.Cpu.apic.Hw.Apic.in_service in
         if List.exists (fun v -> v = 0x31 || v = 0x32) in_service then
           List.iter
             (fun (b : Workloads.Workload.t) ->
               match Hypervisor.domain hv b.Workloads.Workload.domid with
               | Some d -> d.Domain.guest_failed <- true
               | None -> ())
             st.benchmarks;
         if List.mem 0xf0 in_service then Hw.Apic.disarm_timer c.Hw.Cpu.apic);
     (* A CPU whose APIC timer was left disarmed gets no timer
        interrupts: the vCPU pinned there starves. If that CPU belongs
        to the PrivVM the platform is dead. *)
     Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
         if not (Hw.Apic.timer_armed c.Hw.Cpu.apic) then begin
           let victims =
             List.filter
               (fun (v : Domain.vcpu) -> v.Domain.processor = c.Hw.Cpu.id)
               (Hypervisor.all_vcpus hv)
           in
           List.iter
             (fun (v : Domain.vcpu) ->
               match Hypervisor.domain hv v.Domain.domid with
               | Some d ->
                 if d.Domain.privileged then begin
                   hv_ok := false;
                   fail "PrivVM CPU starved: APIC timer disarmed"
                 end
                 else d.Domain.guest_failed <- true
               | None -> ())
             victims
         end);
     (* Resume the benchmarks for their remaining duration. *)
     for _ = 1 to st.cfg.post_activities do
       if !hv_ok then run_one_activity st
     done;
     (* The PrivVM must still work for the platform to be healthy. *)
     if (Hypervisor.privvm hv).Domain.guest_failed then begin
       hv_ok := false;
       fail "PrivVM failed"
     end;
     (* 3AppVM: create the third AppVM and run BlkBench in it. *)
     (match st.cfg.setup with
     | Three_appvm ->
       if !hv_ok then begin
         (try
            Hypervisor.execute hv st.rng
              (Hypervisor.Hypercall
                 { domid = 0; vid = 0; kind = Hypercalls.Domctl_create_domain })
          with Crash.Hypervisor_crash _ -> new_vm_ok := false);
         (match
            List.find_opt
              (fun (d : Domain.t) ->
                (not d.Domain.privileged)
                && (not d.Domain.is_idle)
                && d.Domain.domid >= 3)
              (Hypervisor.all_domains hv)
          with
         | Some d when !new_vm_ok ->
           let blk = Workloads.Workload.create Workloads.Workload.Blkbench ~domid:d.Domain.domid in
           (try
              for _ = 1 to 150 do
                Hypervisor.execute hv st.rng
                  (Workloads.Workload.sample_activity st.rng blk)
              done;
              if Domain.affected d then new_vm_ok := false
            with Crash.Hypervisor_crash _ -> new_vm_ok := false)
         | Some _ | None -> new_vm_ok := false)
       end
       else new_vm_ok := false
     | One_appvm _ -> ());
     (* Final health check: residual inconsistencies that the benchmarks
        did not happen to touch still leave the hypervisor latently
        broken. *)
     Obs.Recorder.alloc_phase hv.Hypervisor.obs Obs.Recorder.Audit;
     if !hv_ok then begin
       let report = Hypervisor.audit hv in
       if not (Hypervisor.audit_clean report) then begin
         hv_ok := false;
         (* Violations also land as typed events + per-kind [audit.*]
            counters, not just this formatted failure note. *)
         Hypervisor.record_audit_violations hv report;
         fail (Format.asprintf "residual inconsistency: %a" Hypervisor.pp_audit report)
       end
     end
   with Crash.Hypervisor_crash d ->
     (* The hypervisor failed again after recovery. *)
     hv_ok := false;
     fail ("post-recovery crash: " ^ Crash.describe d));
  (!hv_ok, !new_vm_ok, !reason)

(* First half of a run: warm the machine up to the fault trigger point.
   Returns the AppVM domids present before injection (the set the
   outcome classification counts casualties against). Split from
   [finish_prepared] so clone fan-out can drive one machine to exactly
   this point, snapshot it, and replay many fault variants from the
   image. *)
let warmup_prepared st =
  let cfg = st.cfg in
  let obs = st.hv.Hypervisor.obs in
  install_cpu_tracker st;
  (* Boot (everything since [alloc_begin]) ends here; the warmup
     activities are workload. *)
  Obs.Recorder.alloc_phase obs Obs.Recorder.Workload;
  (* Warm-up: the first-level trigger fires well after benchmark start. *)
  for _ = 1 to cfg.warmup_activities do
    run_one_activity st
  done;
  List.map
    (fun (d : Domain.t) -> d.Domain.domid)
    (Hypervisor.app_domains st.hv)

(* Second half: arm the trigger, run to detection, recover, classify. *)
let finish_prepared st ~initial_app_domids : outcome =
  let cfg = st.cfg in
  let obs = st.hv.Hypervisor.obs in
  (* The armed trigger window counts as injection, detected or not. *)
  Obs.Recorder.alloc_phase obs Obs.Recorder.Injection;
  arm_fault st;
  (* Run until detection or end of benchmark. *)
  let detection = ref None in
  (try
     for _ = 1 to cfg.post_activities do
       run_one_activity st
     done
   with Crash.Hypervisor_crash d -> detection := Some d);
  let out =
    match !detection with
    | None ->
      st.hv.Hypervisor.step_hook <- None;
      let any_sdc =
        List.exists
          (fun (d : Domain.t) -> d.Domain.guest_sdc || d.Domain.guest_failed)
          (Hypervisor.app_domains st.hv)
      in
      if any_sdc then Silent_corruption else Non_manifested
    | Some det ->
      st.hv.Hypervisor.step_hook <- None;
      Obs.Recorder.alloc_phase obs Obs.Recorder.Detection;
      let faulted_cpu = st.last_cpu in
      Obs.Metrics.incr obs.Obs.Recorder.detections;
      Obs.Recorder.event obs
        ~time:(Sim.Clock.now st.hv.Hypervisor.clock)
        ~cpu:faulted_cpu Obs.Event.Error
        (Obs.Event.Detection
           {
             kind = (match det with Crash.Panic _ -> "panic" | Crash.Hang _ -> "hang");
             message = Crash.describe det;
           });
      Sim.Clock.advance_by st.hv.Hypervisor.clock
        (Crash.detection_latency ~config:st.hv.Hypervisor.config det);
    let busy_cpus = abandon_concurrent_work st ~faulted_cpu in
    enter_detection_context st;
    Obs.Recorder.alloc_phase obs Obs.Recorder.Recovery;
    let recovery_result =
      match cfg.mech with
      | No_recovery -> Error "no recovery mechanism"
      | Mech (mechanism, enh) -> (
        try Ok (Recovery.Engine.recover mechanism st.hv ~enh ~detected_on:faulted_cpu)
        with Crash.Hypervisor_crash d -> Error (Crash.describe d))
    in
    (* Scope_faulting_only ablation: the surviving threads on the other
       CPUs resume after recovery and collide with its global state
       changes -- their IRQ-nesting counters were zeroed while they were
       still inside handlers, and the locks they held were force-
       released, so their epilogues trip assertions. *)
    let recovery_result =
      match (recovery_result, cfg.discard_scope, busy_cpus) with
      | Ok _, Scope_faulting_only, _ :: _ ->
        Error
          (Printf.sprintf
             "surviving thread on cpu%d: irq_exit underflow after recovery \
              cleared its nesting counter"
             (List.hd busy_cpus))
      | (Ok _ | Error _), _, _ -> recovery_result
    in
    (match recovery_result with
    | Error why ->
      Detected
        {
          detection = det;
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
      let hv_ok, new_vm_ok, reason = post_recovery_phase st in
      let app_vms_affected =
        if hv_ok then count_affected_app_vms st ~initial_app_domids
        else List.length initial_app_domids
      in
      let success, no_vmf =
        match cfg.setup with
        | One_appvm _ ->
          let s = hv_ok && app_vms_affected = 0 in
          (s, s)
        | Three_appvm ->
          ( hv_ok && new_vm_ok && app_vms_affected <= 1,
            hv_ok && new_vm_ok && app_vms_affected = 0 )
      in
      Detected
        {
          detection = det;
          recovered = hv_ok;
          app_vms_affected;
          new_vm_ok;
          success;
          no_vmf;
          recovery_latency = recovery.Recovery.Engine.latency;
          breakdown = Some recovery.Recovery.Engine.breakdown;
          failure_reason = reason;
        })
  in
  (* Classify: one counter per outcome class, the latency histogram for
     completed recoveries, and a terminal event closing the timeline. The
     instruments are the recorder's cached fields -- no name lookup. *)
  let now = Sim.Clock.now st.hv.Hypervisor.clock in
  (match out with
  | Non_manifested -> Obs.Metrics.incr obs.Obs.Recorder.outcome_non_manifested
  | Silent_corruption -> Obs.Metrics.incr obs.Obs.Recorder.outcome_sdc
  | Detected d ->
    Obs.Metrics.incr obs.Obs.Recorder.outcome_detected;
    if d.recovery_latency > 0 then begin
      Obs.Metrics.observe obs.Obs.Recorder.recovery_latency_ms
        (d.recovery_latency / 1_000_000);
      Obs.Metrics.observe obs.Obs.Recorder.recovery_latency_ns
        d.recovery_latency
    end;
    (* Per-phase recovery timings into the log-bucket histogram: the
       quantile source for "where does the recovery tail come from". *)
    (match d.breakdown with
    | Some b ->
      List.iter
        (fun (_, ns) ->
          if ns > 0 then
            Obs.Metrics.observe obs.Obs.Recorder.recovery_phase_ns ns)
        b.Latency_model.steps
    | None -> ()));
  Obs.Metrics.observe obs.Obs.Recorder.run_latency_ns now;
  Obs.Metrics.set obs.Obs.Recorder.run_end_time_ns now;
  Obs.Recorder.event obs ~time:now Obs.Event.Info
    (Obs.Event.Outcome_classified { name = outcome_name out });
  Obs.Recorder.alloc_close obs;
  out

(* The run proper, over an already-booted (fresh or restored) machine. *)
let run_prepared st : outcome =
  finish_prepared st ~initial_app_domids:(warmup_prepared st)

(* Execute one complete fault-injection run on a freshly booted machine.
   [recorder] (optional) is the observability recorder the run's
   hypervisor reports into; callers that want the trace/spans/metrics of
   the run pass one and inspect it after. *)
let run_obs ?recorder (cfg : config) : outcome =
  (match recorder with
  | Some r -> Obs.Recorder.alloc_begin r
  | None -> ());
  run_prepared (boot_state ?recorder cfg)

let run (cfg : config) : outcome = run_obs cfg

(* ------------------------------------------------------------------ *)
(* Worker reuse: one long-lived machine, reset in place between runs    *)
(* ------------------------------------------------------------------ *)

(* A worker owns one machine plus the per-run scratch (RNG, recorder)
   and reuses them across runs: [execute_into] rewinds everything by
   restoring a golden post-boot snapshot instead of reconstructing it
   (or even re-walking every table the way [Hypervisor.reboot_in_place]
   does), cutting the per-run reset to O(state the previous run touched)
   -- which is what lets parallel campaigns scale instead of serialising
   on the OCaml 5 stop-the-world minor GC. The contract (enforced by
   tests): a run through [execute_into] is observationally identical to
   [run_obs] on a fresh machine with the same config -- outcomes, stats
   and metric snapshots all match bit for bit, including after runs that
   died unrecovered.

   [w_boot_key] is the part of the config a golden image bakes in: runs
   that share it rewind through [Hypervisor.restore]; a mismatch falls
   back to reset-in-place (or a full boot when the machine geometry
   itself changed) and retakes the image. *)
type boot_key = {
  bk_hv_config : Config.t;
  bk_setup : Hypervisor.setup;
  bk_vcpus_per_cpu : int;
}

type worker = {
  w_recorder : Obs.Recorder.t option;
  w_rng : Sim.Rng.t;
  mutable w_mconfig : Hw.Machine.config; (* geometry the machine was built with *)
  mutable w_hv : Hypervisor.t;
  mutable w_boot_key : boot_key;
  mutable w_image : Hypervisor.image; (* golden snapshot, boot or trigger point *)
  mutable w_image_is_boot : bool;
      (* [w_image] is a post-boot image for [w_boot_key]; clone fan-out
         swaps in trigger-point images, after which a plain rewind must
         fall back to reset-in-place to get a booted machine again *)
  mutable w_golden_ledger : Ledger.t option; (* captured with the image when auditing *)
  mutable w_audit_restores : bool;
  mutable w_last_target : string option;
      (* [first_target] of the most recent run: postmortem capture reads
         it after [execute_into]/[clone_into] return *)
}

let boot_key_of (cfg : config) =
  {
    bk_hv_config = cfg.hv_config;
    bk_setup = hv_setup_of cfg;
    bk_vcpus_per_cpu = cfg.vcpus_per_cpu;
  }

(* (Re)take the worker's golden image at the machine's current state --
   always a freshly-booted quiesce point. When restore auditing is on,
   the resource ledger is captured alongside: it is the baseline every
   audited restore must come back to exactly. *)
let retake_image w =
  w.w_image <- Hypervisor.snapshot w.w_hv;
  w.w_image_is_boot <- true;
  w.w_golden_ledger <-
    (if w.w_audit_restores then Some (Ledger.capture w.w_hv) else None)

(* Opt-in zero-leak audit at restore points: after every snapshot
   restore, recapture the ledger and require the orphan view to be
   exactly the image's -- no orphaned frames, held locks, lost recurring
   timers etc. may survive a rewind, whatever the previous run did
   (fault-free, recovered, or died). [Ledger.capture] walks every
   domain, heap object and materialized frame, so this deliberately
   stays off in production campaigns and is exercised by the tests. *)
let set_restore_audit w flag =
  w.w_audit_restores <- flag;
  w.w_golden_ledger <-
    (if flag then Some (Ledger.capture w.w_hv) else None)

let check_restore_leaks w =
  match w.w_golden_ledger with
  | None -> ()
  | Some golden ->
    let d = Ledger.diff ~before:golden ~after:(Ledger.capture w.w_hv) in
    if not (Ledger.no_leak d) then
      failwith
        (Format.asprintf "Run: resources leaked across snapshot restore: %a"
           Ledger.pp_diff d)

let prepare ?recorder (cfg : config) =
  let hv = boot_hv ?recorder cfg in
  let w =
    {
      w_recorder = recorder;
      w_rng = Sim.Rng.create cfg.seed;
      w_mconfig = cfg.mconfig;
      w_hv = hv;
      w_boot_key = boot_key_of cfg;
      w_image = Hypervisor.snapshot hv;
      w_image_is_boot = true;
      w_golden_ledger = None;
      w_audit_restores = false;
      w_last_target = None;
    }
  in
  w

(* The recorder the worker's next run will report into: inspect or export
   it after [execute_into] returns. *)
let worker_recorder w = w.w_hv.Hypervisor.obs

(* Rewind the worker to a freshly-booted machine for [cfg]: reseed the
   RNG and restore the golden boot image -- O(state the previous run
   dirtied), not O(machine). Runs whose boot parameters differ from the
   image's fall back to reset-in-place (same boot, different config) or
   a replacement boot (different geometry) and retake the image. Also
   used directly by the endurance driver, which then runs its own
   multi-cycle scenario instead of [run_prepared]. *)
let rewind w (cfg : config) =
  Sim.Rng.reseed w.w_rng cfg.seed;
  if cfg.mconfig <> w.w_mconfig then begin
    (* The machine geometry changed: the tables cannot be reused. Boot a
       replacement machine; subsequent runs reuse it. *)
    (match w.w_recorder with
    | Some r -> Obs.Recorder.reset r
    | None -> ());
    w.w_hv <- boot_hv ?recorder:w.w_recorder cfg;
    w.w_mconfig <- cfg.mconfig;
    w.w_boot_key <- boot_key_of cfg;
    retake_image w
  end
  else if boot_key_of cfg <> w.w_boot_key || not w.w_image_is_boot then begin
    (* The golden image is unusable: either it was taken for different
       boot parameters, or a clone fan-out replaced it with a trigger-
       point image. Reset in place and retake it. The recorder survives
       [reboot_in_place] (flight-recorder contract), so the per-run
       metric isolation reset is explicit here. *)
    Obs.Recorder.reset w.w_hv.Hypervisor.obs;
    Hypervisor.reboot_in_place w.w_hv ~config:cfg.hv_config
      ~setup:(hv_setup_of cfg) ~vcpus_per_cpu:cfg.vcpus_per_cpu;
    w.w_boot_key <- boot_key_of cfg;
    retake_image w
  end
  else begin
    (* The fast path, taken for every run of a homogeneous campaign --
       including after [died]/unrecovered outcomes, which used to force
       a fresh boot's worth of work. The recorder is not part of the
       image and survives [restore]; reset it by hand for per-run
       metric isolation. *)
    Obs.Recorder.reset w.w_hv.Hypervisor.obs;
    Hypervisor.restore w.w_hv w.w_image;
    check_restore_leaks w
  end

let execute_into w (cfg : config) : outcome =
  (* Mark before the rewind so the reset cost lands in the boot phase
     (the mark survives the recorder reset inside the rewind). *)
  Obs.Recorder.alloc_begin w.w_hv.Hypervisor.obs;
  rewind w cfg;
  (* New flight-ring epoch: the rings survive the rewind by design, so
     scope this run's readback to its own entries. *)
  Hypervisor.new_flight_epoch w.w_hv;
  let st = make_state cfg w.w_rng w.w_hv in
  let out = run_prepared st in
  w.w_last_target <- st.first_target;
  out

(* ------------------------------------------------------------------ *)
(* Clone fan-out: one warmed-up image, many fault variants              *)
(* ------------------------------------------------------------------ *)

(* A trigger-point clone source: the machine driven to the fault trigger
   point exactly once, plus everything [finish_prepared] needs to replay
   from there -- the hypervisor image, the metric values accumulated so
   far (fan-out variants must start from them or their per-run metric
   deltas would differ from a fresh run's), the RNG position and the
   harness scalars. *)
type clone_source = {
  cs_worker : worker;
  cs_state : state;
  cs_initial_app_domids : int list;
  cs_image : Hypervisor.image;
  cs_metrics : Obs.Metrics.snapshot;
  cs_rng_pos : int64;
  cs_last_cpu : int;
}

(* Drive the worker's machine to the trigger point for [cfg] (rewind,
   boot bookkeeping, warmup) and snapshot it there. The returned source
   replays with [clone_into]. A hypervisor carries one copy-on-write
   baseline at a time, so this snapshot supersedes the worker's golden
   boot image; [w_image] is re-armed with the trigger image to keep the
   worker's restore paths coherent. *)
let prepare_clone (w : worker) (cfg : config) : clone_source =
  Obs.Recorder.alloc_begin w.w_hv.Hypervisor.obs;
  rewind w cfg;
  let st = make_state cfg w.w_rng w.w_hv in
  let initial_app_domids = warmup_prepared st in
  (* Quiesce for the snapshot: the tracker hook is reinstalled (and the
     trigger armed over it) by each variant. *)
  st.hv.Hypervisor.step_hook <- None;
  let image = Hypervisor.snapshot st.hv in
  w.w_image <- image;
  w.w_image_is_boot <- false;
  {
    cs_worker = w;
    cs_state = st;
    cs_initial_app_domids = initial_app_domids;
    cs_image = image;
    cs_metrics = Obs.Recorder.metrics_snapshot st.hv.Hypervisor.obs;
    cs_rng_pos = Sim.Rng.save w.w_rng;
    cs_last_cpu = st.last_cpu;
  }

(* Replay one fault variant from the trigger-point image. [reseed]
   selects the variant: it rewinds the RNG to the trigger point by
   default (identical twins) or forks the stream for distinct variants.
   [cfg] overrides the post-trigger configuration -- fault kind and
   directive in particular -- so the fuzzer can clone one warmup across
   mutants that differ only past the trigger point; the prepared machine
   and warmup are shared, only [finish_prepared] sees the variant
   config. The first replay runs directly on the just-prepared machine;
   later ones restore the image first -- O(what the previous variant
   touched). Each variant's run records into the worker recorder exactly
   what a fresh full run with the same post-trigger stream would have
   recorded. *)
let clone_into ?reseed ?cfg (src : clone_source) : outcome =
  let st =
    match cfg with
    | None -> src.cs_state
    | Some cfg -> { src.cs_state with cfg }
  in
  let w = src.cs_worker in
  Obs.Recorder.alloc_begin st.hv.Hypervisor.obs;
  Hypervisor.restore st.hv src.cs_image;
  (* The restore rewinds [hv.config] to the image's. Recovery-path-only
     flags from the variant config are legitimate post-trigger variation
     (they cannot affect the shared warmup), so re-apply them here. *)
  st.hv.Hypervisor.config <-
    {
      st.hv.Hypervisor.config with
      Config.incremental_scan = st.cfg.hv_config.Config.incremental_scan;
    };
  let r = st.hv.Hypervisor.obs in
  Obs.Recorder.reset r;
  Obs.Metrics.restore r.Obs.Recorder.metrics src.cs_metrics;
  check_restore_leaks w;
  Hypervisor.new_flight_epoch st.hv;
  Sim.Rng.reseed st.rng
    (match reseed with Some s -> s | None -> src.cs_rng_pos);
  st.fault_applied <- false;
  st.first_target <- None;
  st.last_cpu <- src.cs_last_cpu;
  let out = finish_prepared st ~initial_app_domids:src.cs_initial_app_domids in
  w.w_last_target <- st.first_target;
  out
