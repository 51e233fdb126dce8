(** Recovery steps shared between microreset (NiLiHype) and microreboot
    (ReHype): latency bookkeeping, the guard on the recovery handler
    itself, and the post-reset resolution of inconsistencies with the
    VMs (hypercall/syscall retry set-up, FS/GS restoration). *)

open Hyper

type step_log = {
  mutable steps : (string * Sim.Time.ns) list; (* reverse order *)
  clock : Sim.Clock.t;
  obs : Obs.Recorder.t;
  mechanism : string; (* "NiLiHype" / "ReHype", span category suffix *)
  track : int; (* CPU the recovery runs on (Chrome-trace tid) *)
}

let make_log ?(track = 0) ~mechanism (hv : Hypervisor.t) =
  { steps = []; clock = hv.Hypervisor.clock; obs = hv.Hypervisor.obs; mechanism; track }

(* Record a named recovery step that takes [cost] simulated time. Each
   step becomes both a latency-breakdown entry and an observability span
   with the same name and duration, so summing span durations per phase
   reproduces [Latency_model.breakdown] exactly. *)
let timed log name cost f =
  let start = Sim.Clock.now log.clock in
  Sim.Clock.advance_by log.clock cost;
  let r = f () in
  log.steps <- (name, cost) :: log.steps;
  Obs.Recorder.span log.obs ~name
    ~cat:("recovery:" ^ log.mechanism)
    ~track:log.track ~start ~duration:cost;
  Obs.Recorder.event log.obs ~time:start ~cpu:log.track Obs.Event.Info
    (Obs.Event.Recovery_step { mechanism = log.mechanism; step = name });
  r

(* Debug-level note that a specific state-consistency enhancement ran. *)
let note_enhancement (hv : Hypervisor.t) ~mechanism ~cpu e =
  Obs.Recorder.event hv.Hypervisor.obs
    ~time:(Sim.Clock.now hv.Hypervisor.clock)
    ~cpu Obs.Event.Debug
    (Obs.Event.Recovery_step
       { mechanism; step = "enhancement:" ^ Enhancement.name e })

(* Record forced lock releases performed during recovery: a typed event
   plus the [recovery.locks_released] counter. *)
let note_lock_release (hv : Hypervisor.t) ~cpu ~name count =
  if count > 0 then begin
    Obs.Metrics.incr ~by:count
      hv.Hypervisor.obs.Obs.Recorder.recovery_lock_releases;
    Obs.Recorder.event hv.Hypervisor.obs
      ~time:(Sim.Clock.now hv.Hypervisor.clock)
      ~cpu Obs.Event.Info
      (Obs.Event.Lock_release { name; count })
  end

let breakdown log : Latency_model.breakdown =
  { Latency_model.steps = List.rev log.steps }

(* The recovery routine can itself be a casualty: reason #1 for recovery
   failure in Section VII-A is "the recovery routine fails to be invoked
   due to the corrupted hypervisor state". *)
let check_recovery_handler (hv : Hypervisor.t) =
  if not hv.Hypervisor.recovery_handler_ok then
    Crash.panic "recovery routine corrupted: cannot be invoked"

(* Resolve inconsistencies between the recovered hypervisor and the VMs:
   arrange for partially executed hypercalls and forwarded system calls
   to be retried when VM execution resumes. Without the retry
   mechanisms the interaction is simply lost and the issuing guest
   blocks forever. *)
let setup_retries (hv : Hypervisor.t) ~(enh : Enhancement.set) =
  let hypercall_retry = Enhancement.mem enh Enhancement.Hypercall_retry in
  let syscall_retry = Enhancement.mem enh Enhancement.Syscall_retry in
  List.iter
    (fun (v : Domain.vcpu) ->
      (match v.Domain.in_hypercall with
      | Some record when not record.Hypercalls.committed ->
        if hypercall_retry then v.Domain.retry_pending <- true
        else v.Domain.lost_work <- true
      | Some _ -> v.Domain.in_hypercall <- None
      | None -> ());
      if v.Domain.in_syscall_forward then begin
        if syscall_retry then v.Domain.syscall_retry_pending <- true
        else v.Domain.lost_work <- true
      end)
    (Hypervisor.all_vcpus hv)

(* Restore guest FS/GS for vCPUs that were inside the hypervisor when
   the error was detected. Only possible if the entry path saved them
   (the Save-FS/GS port fix, [Config.save_fs_gs]); otherwise the guest
   resumes with clobbered segment bases and its processes fail. *)
let restore_fs_gs (hv : Hypervisor.t) ~(enh : Enhancement.set) =
  let can_restore =
    Enhancement.mem enh Enhancement.Restore_fs_gs
    && hv.Hypervisor.config.Config.save_fs_gs
  in
  List.iter
    (fun (v : Domain.vcpu) ->
      let was_in_hypervisor =
        v.Domain.in_hypercall <> None || v.Domain.in_syscall_forward
        || v.Domain.retry_pending || v.Domain.syscall_retry_pending
      in
      if was_in_hypervisor && not can_restore then v.Domain.fsgs_valid <- false)
    (Hypervisor.all_vcpus hv)

(* Acknowledge all pending and in-service interrupts so stale interrupt
   state cannot block future delivery (shared ReHype mechanism). *)
let ack_interrupts (hv : Hypervisor.t) =
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c -> Hw.Apic.ack_all c.Hw.Cpu.apic)

(* Release all heap-resident locks (ReHype mechanism reused by
   NiLiHype). *)
let release_heap_locks (hv : Hypervisor.t) = Heap.release_locks hv.Hypervisor.heap

(* Reprogram each CPU's APIC one-shot timer from the software timer
   heap, closing the fired-but-not-reprogrammed window. *)
let reprogram_apic_timers (hv : Hypervisor.t) =
  let now = Sim.Clock.now hv.Hypervisor.clock in
  let deadline =
    match Timer_heap.next_deadline hv.Hypervisor.timers with
    | Some d -> max d (now + Sim.Time.us 10)
    | None -> now + Sim.Time.ms 10
  in
  Hw.Machine.iter_cpus hv.Hypervisor.machine (fun c ->
      Hw.Apic.program_timer c.Hw.Cpu.apic ~deadline)
