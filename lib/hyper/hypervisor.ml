(** The composite hypervisor and its request-processing paths.

    Control enters the hypervisor through hypercalls, exceptions and
    interrupts (Section III-A). Each entry is executed as a sequence of
    named micro-steps over the real simulated structures; the fault
    injector observes every step through [step_hook] and can corrupt
    state or abandon the execution mid-flight, leaving exactly the
    partial state a real fault leaves (held locks, half-done context
    switches, disarmed APIC timers, partially executed hypercalls...). *)

type activity =
  | Timer_tick of int (* cpu *)
  | Device_interrupt of { line : int; target_dom : int }
  | Hypercall of { domid : int; vid : int; kind : Hypercalls.kind }
  | Syscall_forward of { domid : int; vid : int }
  | Context_switch of int (* cpu *)
  | Idle_poll of int (* cpu *)

let activity_name = function
  | Timer_tick c -> Printf.sprintf "timer_tick(cpu%d)" c
  | Device_interrupt { line; target_dom } ->
    Printf.sprintf "dev_irq(line%d->d%d)" line target_dom
  | Hypercall { domid; vid; kind } ->
    Printf.sprintf "hypercall(d%dv%d,%s)" domid vid (Hypercalls.name kind)
  | Syscall_forward { domid; vid } -> Printf.sprintf "syscall(d%dv%d)" domid vid
  | Context_switch c -> Printf.sprintf "ctx_switch(cpu%d)" c
  | Idle_poll c -> Printf.sprintf "idle(cpu%d)" c

(* Raised by [execute_partial]'s stepper to abandon an activity at a
   given step, modelling work in flight on other CPUs at detection. *)
exception Abandoned

type t = {
  machine : Hw.Machine.t;
  clock : Sim.Clock.t;
  mutable config : Config.t;
  pfn : Pfn.t;
  heap : Heap.t;
  static_segment : Spinlock.Segment.t;
  console_lock : Spinlock.t;
  domlist_lock : Spinlock.t;
  global_heap_lock : Spinlock.t;
  percpu : Percpu.t array;
  timers : Timer_heap.t;
  sched : Sched.t;
  domains : (int, Domain.t) Hashtbl.t;
  cycles : Cycle_account.t;
  obs : Obs.Recorder.t;
  (* Crash-surviving flight rings (the postmortem "black box"): last-N
     hypercall entries and journal appends. Deliberately NOT touched by
     [reboot_in_place] or [restore] -- like the paper's persistent
     journal, the evidence of what led up to a failure must outlive the
     recovery that wipes the rest of the hypervisor state. The harness
     bumps their epoch at run boundaries ([new_flight_epoch]) so
     readback never mixes runs. *)
  hc_flight : Obs.Flight.t;
  journal_flight : Obs.Flight.t;
  watchdog_soft : int array; (* per-CPU software tick counters *)
  mutable time_sync_count : int;
  mutable next_domid : int;
  mutable static_data_ok : bool; (* non-lock static segment integrity *)
  mutable static_data_note : string;
  mutable recovery_handler_ok : bool;
  mutable bootline_ok : bool; (* boot options usable for a re-boot *)
  mutable step_hook : (t -> activity -> int -> string -> int -> unit) option;
      (* called per micro-step with (hv, activity, step_index, step_name,
         cpu); plain arguments, so observing a step allocates nothing *)
  need_resched_flags : bool array;
  (* The activity the stepper is currently executing. Mutable fields on
     [t] rather than a per-activity stepper closure: [execute] runs one
     activity at a time, and threading the context this way keeps the
     per-step and per-activity cost allocation-free. *)
  mutable cur_activity : activity;
  mutable cur_cpu : int;
  mutable cur_step : int;
  (* Names for the indexed hot-path steps, computed once per instance and
     sized from [Config.max_hypercall_subops]: formatting them with
     sprintf on every loop iteration was a measurable share of per-run
     allocation. Indices past the ABI limit fall back to sprintf. *)
  mutable pte_write_names : string array;
  mutable grant_map_names : string array;
  mutable ring_io_names : string array;
  mutable grant_unmap_names : string array;
  (* [audit.*] counters in [audit_violation_kinds] order, resolved once
     at [create] so bumping one needs no name concatenation or registry
     lookup. *)
  audit_counters : Obs.Metrics.counter array;
}

let cpu_count t = Hw.Machine.num_cpus t.machine
let frames t = Pfn.frames t.pfn

(* The geometry all size-proportional recovery costs are charged at: the
   config's pinned geometry when present (reporting latencies for the
   modelled host), else the simulated machine's own tables. Mechanics
   always operate on the real tables; only cost accounting uses this. *)
let geometry t =
  match t.config.Config.geometry with
  | Some g -> g
  | None ->
    { Config.frames = Pfn.frames t.pfn; cpus = Hw.Machine.num_cpus t.machine }

(* The dispatch paths match on [Hashtbl.find t.domains] with an
   [exception Not_found] case instead: [find_opt]'s [Some] is a fresh
   allocation per lookup, and they look up a domain per activity. *)
let domain t domid = Hashtbl.find_opt t.domains domid

let all_domains t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.domains []
  |> List.sort (fun a b -> compare a.Domain.domid b.Domain.domid)

let app_domains t =
  List.filter
    (fun d -> (not d.Domain.privileged) && not d.Domain.is_idle)
    (all_domains t)

let all_vcpus t =
  List.concat_map (fun d -> Array.to_list d.Domain.vcpus) (all_domains t)

let privvm t =
  match List.find_opt (fun d -> d.Domain.privileged) (all_domains t) with
  | Some d -> d
  | None -> Crash.panic "no PrivVM"

(* The idle domain: one always-runnable vCPU per physical CPU, which the
   scheduler switches to whenever a guest vCPU blocks or yields. Its
   presence is what makes context switching -- and hence scheduling-
   metadata vulnerability windows -- pervasive, as in Xen. *)
let idle_domain t =
  match List.find_opt (fun d -> d.Domain.is_idle) (all_domains t) with
  | Some d -> d
  | None -> Crash.panic "no idle domain"

(* ------------------------------------------------------------------ *)
(* Construction and boot                                               *)
(* ------------------------------------------------------------------ *)

(* The fixed vocabulary of audit-violation kinds (one [audit.*] counter
   per kind). Listed here, ahead of [create], so every recorder attached
   to a hypervisor gets all the instruments registered eagerly -- a
   reused recorder must stay structurally identical to a fresh one
   regardless of which violations a particular run exhibits. *)
let audit_violation_kinds =
  [
    "static_locks_held";
    "heap_locks_held";
    "irq_counts_nonzero";
    "sched_inconsistent";
    "pfn_inconsistent";
    "heap_corrupt";
    "timer_structure_bad";
    "recurring_missing";
    "apics_unarmed";
    "static_data_corrupt";
  ]

let audit_counter obs kind =
  Obs.Metrics.counter obs.Obs.Recorder.metrics ("audit." ^ kind)

let indexed_names prefix n =
  Array.init (n + 1) (fun i -> Printf.sprintf "%s%d" prefix i)

let create ?(mconfig = Hw.Machine.default_config) ?obs ~config clock =
  let machine = Hw.Machine.create ~config:mconfig clock in
  let obs =
    match obs with
    | Some r -> r
    | None -> Obs.Recorder.create ~capacity:1024 ~min_level:Obs.Event.Warn ()
  in
  let heap = Heap.create () in
  let static_segment = Spinlock.Segment.create () in
  let static_lock name =
    let l = Spinlock.create ~name ~location:Spinlock.Static in
    Spinlock.Segment.register static_segment l;
    l
  in
  let console_lock = static_lock "console" in
  let domlist_lock = static_lock "domlist" in
  let global_heap_lock = static_lock "heap" in
  let num_cpus = Hw.Machine.num_cpus machine in
  let t =
    {
      machine;
      clock;
      config;
      pfn = Pfn.create ~frames:(Hw.Machine.num_frames machine);
      heap;
      static_segment;
      console_lock;
      domlist_lock;
      global_heap_lock;
      percpu = Array.init num_cpus (fun c -> Percpu.create heap c);
      timers = Timer_heap.create ();
      sched = Sched.create ~num_cpus;
      domains = Hashtbl.create 8;
      cycles = Cycle_account.create ();
      obs;
      hc_flight = Obs.Flight.create ~capacity:64 ();
      journal_flight = Obs.Flight.create ~capacity:64 ();
      watchdog_soft = Array.make num_cpus 0;
      time_sync_count = 0;
      next_domid = 0;
      static_data_ok = true;
      static_data_note = "";
      recovery_handler_ok = true;
      bootline_ok = true;
      step_hook = None;
      need_resched_flags = Array.make num_cpus false;
      cur_activity = Idle_poll 0;
      cur_cpu = 0;
      cur_step = 0;
      pte_write_names = indexed_names "pte_write_" config.Config.max_hypercall_subops;
      grant_map_names = indexed_names "grant_map_" config.Config.max_hypercall_subops;
      ring_io_names = indexed_names "ring_io_" config.Config.max_hypercall_subops;
      grant_unmap_names =
        indexed_names "grant_unmap_" config.Config.max_hypercall_subops;
      audit_counters =
        Array.of_list (List.map (audit_counter obs) audit_violation_kinds);
    }
  in
  Hw.Ioapic.set_logging machine.Hw.Machine.ioapic config.Config.ioapic_write_logging;
  t

(* Record a typed event against the hypervisor's recorder at the current
   simulated time. *)
let observe ?cpu ?domid t level payload =
  Obs.Recorder.event t.obs ~time:(Sim.Clock.now t.clock) ?cpu ?domid level
    payload

(* Legacy free-form trace path, now a [Message] event. *)
let tracef t level fmt =
  Format.kasprintf (fun s -> observe t level (Obs.Event.Message s)) fmt

let _ = tracef (* kept for ad-hoc debugging call sites *)

(* Standard recurring timer events plus APIC programming, performed at
   boot and re-performed by ReHype's reboot. *)
let register_recurring_events t =
  let now = Sim.Clock.now t.clock in
  ignore (Timer_heap.add t.timers ~deadline:(now + Sim.Time.ms 30) ~period:(Sim.Time.ms 30) Timer_heap.Time_sync);
  let wd_period = Sim.Time.ms t.config.Config.watchdog_period_ms in
  ignore
    (Timer_heap.add t.timers ~deadline:(now + wd_period) ~period:wd_period
       Timer_heap.Watchdog_tick);
  for cpu = 0 to cpu_count t - 1 do
    ignore
      (Timer_heap.add t.timers
         ~deadline:(now + Sim.Time.ms 10 + (cpu * Sim.Time.ms 1))
         ~period:(Sim.Time.ms 10)
         (Timer_heap.Sched_tick cpu))
  done

let arm_all_apics t =
  let now = Sim.Clock.now t.clock in
  let deadline =
    match Timer_heap.next_deadline t.timers with
    | Some d -> max d (now + Sim.Time.us 10)
    | None -> now + Sim.Time.ms 10
  in
  Hw.Machine.iter_cpus t.machine (fun c ->
      Hw.Apic.program_timer c.Hw.Cpu.apic ~deadline)

let setup_ioapic_routing t =
  (* Line 1: block backend, line 2: network backend; both routed to the
     PrivVM's CPU, which hosts the device drivers. *)
  Hw.Ioapic.write t.machine.Hw.Machine.ioapic ~line:1 ~vector:0x31 ~dest_cpu:0
    ~masked:false;
  Hw.Ioapic.write t.machine.Hw.Machine.ioapic ~line:2 ~vector:0x32 ~dest_cpu:0
    ~masked:false

(* Create a domain: allocate its control structures from the heap, give
   it memory (validated page-table frames plus writable frames), bind
   its event channels and install its vCPUs in the scheduler. Used both
   at boot and by the PrivVM toolstack after recovery. *)
let create_domain_internal ?(is_idle = false) t ~privileged ~vcpu_pins ~mem_frames =
  let domid = t.next_domid in
  t.next_domid <- t.next_domid + 1;
  let dom = Domain.create ~is_idle t.heap ~domid ~privileged ~vcpus:vcpu_pins in
  Hashtbl.replace t.domains domid dom;
  for i = 0 to mem_frames - 1 do
    let ptype = if i mod 8 = 0 then Pfn.Page_table else Pfn.Writable in
    let d = Pfn.alloc_frame t.pfn ~owner:domid ~ptype in
    (* Reference convention: every owned frame carries the allocation
       reference; a validated page table additionally carries the pin
       (type) reference, exactly as one pinned by mmu_update does -- so
       unpinning any table drops one reference and never frees it. *)
    if ptype = Pfn.Page_table then begin
      Pfn.validate d;
      Pfn.get_page d
    end;
    dom.Domain.owned_frames <- d.Pfn.index :: dom.Domain.owned_frames
  done;
  Evtchn.bind dom.Domain.evtchn ~port:1;
  Evtchn.bind dom.Domain.evtchn ~port:2;
  (* Grant a few page-table-typed frames for I/O rings; these pinned
     frames are never handed back by decrease_reservation, so grant maps
     cannot race with frame freeing. *)
  let granted = ref 0 in
  List.iter
    (fun f ->
      if !granted < 8 && (Pfn.get t.pfn f).Pfn.ptype = Pfn.Page_table then begin
        Grant.grant dom.Domain.grants ~slot:!granted ~frame:f;
        incr granted
      end)
    dom.Domain.owned_frames;
  Array.iter (fun v -> Sched.enqueue t.sched v) dom.Domain.vcpus;
  dom

let destroy_domain_internal t dom =
  dom.Domain.alive <- false;
  List.iter
    (fun f ->
      let d = Pfn.get t.pfn f in
      if d.Pfn.owner = dom.Domain.domid then begin
        if d.Pfn.validated then Pfn.invalidate d;
        (* Drop every reference (pin and allocation) so the frame really
           returns to the allocator. *)
        while d.Pfn.use_count > 0 do
          Pfn.put_page d
        done
      end)
    dom.Domain.owned_frames;
  dom.Domain.owned_frames <- [];
  List.iter (fun obj -> if obj.Heap.live then Heap.free t.heap obj) dom.Domain.heap_objs;
  dom.Domain.heap_objs <- [];
  Hashtbl.remove t.domains dom.Domain.domid

(* Make each pinned vCPU current on its CPU, as after boot completes. *)
let start_vcpus t =
  List.iter
    (fun (v : Domain.vcpu) ->
      match Sched.current t.sched ~cpu:v.Domain.processor with
      | None ->
        (match Sched.dequeue t.sched ~cpu:v.Domain.processor with
        | Some v' when v' == v -> ()
        | Some v' -> Sched.enqueue t.sched v'
        | None -> ());
        Sched.set_current t.sched ~cpu:v.Domain.processor (Some v);
        Sched.vcpu_mark_current v ~cpu:v.Domain.processor;
        t.percpu.(v.Domain.processor).Percpu.curr_domid <- v.Domain.domid;
        t.percpu.(v.Domain.processor).Percpu.curr_vcpuid <- v.Domain.vid
      | Some _ -> ())
    (all_vcpus t)

type setup =
  | One_appvm
  | Three_appvm
  | Tenant_fleet of int
      (* n small tenant VMs, one vCPU each, round-robin pinned across the
         non-PrivVM CPUs: the fleet-scale serving scenario *)

(* Boot a target system: PrivVM on CPU 0 plus AppVMs pinned to their own
   CPUs (each VM has one vCPU pinned to a different physical CPU,
   Section VI-A). [vcpus_per_cpu > 1] gives each AppVM several vCPUs
   sharing its physical CPU -- the "more complex configurations, that
   include multiple vCPUs per CPU" of the paper's future work. *)
let boot_target t ~setup ~vcpus_per_cpu =
  register_recurring_events t;
  arm_all_apics t;
  setup_ioapic_routing t;
  let dom_frames = 96 in
  let app_pins cpu = List.init (max 1 vcpus_per_cpu) (fun _ -> cpu) in
  let _privvm = create_domain_internal t ~privileged:true ~vcpu_pins:[ 0 ] ~mem_frames:dom_frames in
  (match setup with
  | One_appvm ->
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 1)
         ~mem_frames:dom_frames)
  | Three_appvm ->
    (* Initially two AppVMs (UnixBench, NetBench); the third (BlkBench)
       is created after recovery. *)
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 1)
         ~mem_frames:dom_frames);
    ignore
      (create_domain_internal t ~privileged:false ~vcpu_pins:(app_pins 2)
         ~mem_frames:dom_frames)
  | Tenant_fleet tenants ->
    (* Many small single-vCPU tenants sharing the non-PrivVM CPUs. Small
       memory footprint each, so hundreds of tenants fit the campaign
       frame table with room for post-boot allocation. *)
    let num_cpus = Hw.Machine.num_cpus t.machine in
    let tenant_frames = 24 in
    for i = 0 to tenants - 1 do
      let cpu = if num_cpus = 1 then 0 else 1 + (i mod (num_cpus - 1)) in
      ignore
        (create_domain_internal t ~privileged:false ~vcpu_pins:[ cpu ]
           ~mem_frames:tenant_frames)
    done);
  start_vcpus t;
  (* The idle domain, created last (Xen gives it a reserved domid): one
     always-runnable vCPU per CPU that the scheduler alternates with
     guest vCPUs. *)
  let saved_next_domid = t.next_domid in
  t.next_domid <- 1000;
  let num_cpus = Hw.Machine.num_cpus t.machine in
  let idle =
    create_domain_internal ~is_idle:true t ~privileged:false
      ~vcpu_pins:(List.init num_cpus (fun c -> c))
      ~mem_frames:0
  in
  (* Idle vCPUs become current on CPUs with no guest vCPU. *)
  Array.iter
    (fun (v : Domain.vcpu) ->
      match Sched.current t.sched ~cpu:v.Domain.processor with
      | None ->
        (match Sched.dequeue t.sched ~cpu:v.Domain.processor with
        | Some v' when v' == v -> ()
        | Some v' -> Sched.enqueue t.sched v'
        | None -> ());
        Sched.set_current t.sched ~cpu:v.Domain.processor (Some v);
        Sched.vcpu_mark_current v ~cpu:v.Domain.processor;
        t.percpu.(v.Domain.processor).Percpu.curr_domid <- v.Domain.domid;
        t.percpu.(v.Domain.processor).Percpu.curr_vcpuid <- v.Domain.vid
      | Some _ -> ())
    idle.Domain.vcpus;
  t.next_domid <- saved_next_domid

let boot ?(mconfig = Hw.Machine.default_config) ?obs ?(vcpus_per_cpu = 1)
    ~config ~setup clock =
  let t = create ~mconfig ?obs ~config clock in
  boot_target t ~setup ~vcpus_per_cpu;
  t

(* Reuse a previously booted hypervisor for a new run: rewind the clock,
   reset every component in place to its freshly-created state (including
   heap object-id numbering and frame-allocation order, which surface in
   panic messages), then run the same boot sequence as [boot]. The result
   is observationally identical to a fresh [boot] on the same machine
   geometry -- the reset ≡ reboot determinism contract the campaign
   engine's worker reuse relies on -- but reuses all the big tables (pfn
   descriptors, trace ring, per-CPU areas), so it allocates almost
   nothing. The machine geometry ([mconfig]) is fixed at [create]; only
   the hypervisor [config] may change between runs. *)
let reboot_in_place t ~config ~setup ~vcpus_per_cpu =
  Sim.Clock.reset t.clock;
  t.config <- config;
  Hw.Machine.reset t.machine;
  Heap.reset t.heap;
  Spinlock.Segment.reset t.static_segment;
  (* Ascending CPU order reproduces [create]'s heap-allocation sequence
     (per-CPU lock object then per-CPU area, cpu 0 first). *)
  Array.iter (Percpu.reset t.heap) t.percpu;
  Pfn.reset t.pfn;
  Timer_heap.reset t.timers;
  Sched.reset t.sched;
  Hashtbl.reset t.domains;
  Cycle_account.reset t.cycles;
  (* The recorder and the flight rings deliberately survive the in-place
     reboot: the flight recorder must keep the pre-crash evidence a
     postmortem reads back. Harness code that wants per-run metric
     isolation calls [Obs.Recorder.reset] itself at run boundaries. *)
  Array.fill t.watchdog_soft 0 (Array.length t.watchdog_soft) 0;
  Array.fill t.need_resched_flags 0 (Array.length t.need_resched_flags) false;
  t.time_sync_count <- 0;
  t.next_domid <- 0;
  t.static_data_ok <- true;
  t.static_data_note <- "";
  t.recovery_handler_ok <- true;
  t.bootline_ok <- true;
  t.step_hook <- None;
  (* The indexed-name tables depend only on the ABI sub-op limit: rebuild
     them only if a config swap changed it, so steady-state reuse keeps
     the interned names. *)
  if Array.length t.pte_write_names <> config.Config.max_hypercall_subops + 1
  then begin
    t.pte_write_names <-
      indexed_names "pte_write_" config.Config.max_hypercall_subops;
    t.grant_map_names <-
      indexed_names "grant_map_" config.Config.max_hypercall_subops;
    t.ring_io_names <- indexed_names "ring_io_" config.Config.max_hypercall_subops;
    t.grant_unmap_names <-
      indexed_names "grant_unmap_" config.Config.max_hypercall_subops
  end;
  Hw.Ioapic.set_logging t.machine.Hw.Machine.ioapic
    config.Config.ioapic_write_logging;
  boot_target t ~setup ~vcpus_per_cpu

(* ------------------------------------------------------------------ *)
(* Flight-recorder readback                                           *)
(* ------------------------------------------------------------------ *)

(* Run-boundary epoch bump: flight rings are never cleared (they must
   survive restore / in-place reboot), so readback is scoped to the
   entries recorded since the last bump. *)
let new_flight_epoch t =
  Obs.Flight.new_epoch t.hc_flight;
  Obs.Flight.new_epoch t.journal_flight

(* Oldest-first (name, simulated ns) tails for the current epoch. *)
let hypercall_tail t = Obs.Flight.tail t.hc_flight
let journal_tail t = Obs.Flight.tail t.journal_flight

(* ------------------------------------------------------------------ *)
(* Copy-on-write golden snapshots                                      *)
(* ------------------------------------------------------------------ *)

(* [snapshot] captures a golden image of the mutable hypervisor state;
   [restore] rewinds the same instance back to it in place. Cost model:
   the page-frame table, the heap and the timer heap are handled
   copy-on-write inside [Pfn] / [Heap] / [Timer_heap] (each descriptor,
   object and event carries its own golden copy plus a dirty bit and
   mutators maintain shared dirty lists), so snapshot and restore are
   O(changed state) there; everything else (domains, vcpus, locks,
   per-CPU areas, hardware) is small and constant-size and captured
   whole.

   Constraints:
   - One outstanding image per instance: taking a new snapshot refreshes
     the pfn/heap/timer tables' built-in golden copies, invalidating an
     older image's baseline. Restoring the *most recent* image is
     repeatable (restore, run, restore again): each restore drains the
     dirty lists, later writes re-dirty.
   - Snapshot at quiesce points only: an in-flight hypercall record
     ([vcpu.in_hypercall]) is captured by reference, so interior
     mutation of a record alive at snapshot time (sub-op progress, its
     undo journal) would leak across a restore. Both harness snapshot
     points (post-boot, post-warmup) have no in-flight hypercalls.
   - The recorder ([t.obs]) and the flight rings are deliberately NOT
     part of the image, and [restore] never resets them: observability
     state survives recovery, like the paper's persistent journal.
     Harness code wanting per-run isolation pairs [restore] with
     [Obs.Recorder.reset] (boot-time images) or [Obs.Metrics.restore]
     (trigger-point clone fan-out), plus [new_flight_epoch].
   - [step_hook] comes back as [None]; the harness reinstalls its CPU
     tracker per run. *)

type lock_image = {
  il_lock : Spinlock.t;
  il_holder : int;
  il_acquisitions : int;
}

let capture_lock (l : Spinlock.t) =
  { il_lock = l; il_holder = l.Spinlock.holder; il_acquisitions = l.Spinlock.acquisitions }

let restore_lock im =
  im.il_lock.Spinlock.holder <- im.il_holder;
  im.il_lock.Spinlock.acquisitions <- im.il_acquisitions

type vcpu_image = {
  iv_vcpu : Domain.vcpu;
  iv_processor : int;
  iv_runstate : Domain.runstate;
  iv_is_current : bool;
  iv_curr_slot : int;
  iv_guest_regs : Hw.Regs.t;
  iv_fsgs_valid : bool;
  iv_in_hypercall : Hypercalls.record option;
  iv_in_syscall_forward : bool;
  iv_retry_pending : bool;
  iv_syscall_retry_pending : bool;
  iv_lost_work : bool;
}

type domain_image = {
  id_dom : Domain.t; (* live record, reinserted into the table on restore *)
  id_alive : bool;
  id_struct_ok : bool;
  id_guest_failed : bool;
  id_guest_sdc : bool;
  id_owned_frames : int list;
  id_heap_objs : Heap.obj list;
  id_vcpus : vcpu_image array;
  id_evtchn : (bool * bool * bool) array; (* (bound, pending, masked) *)
  id_evtchn_lock : lock_image;
  id_grants : (bool * int * int) array; (* (in_use, frame, mapped_by) *)
  id_grant_lock : lock_image;
  id_page_lock : lock_image;
}

type percpu_image = {
  ip_local_irq_count : int;
  ip_in_hypercall_depth : int;
  ip_curr_domid : int;
  ip_curr_vcpuid : int;
  ip_fsgs_saved : bool;
  ip_saved_fs : int64;
  ip_saved_gs : int64;
  ip_heap_lock : lock_image;
}

type image = {
  im_config : Config.t;
  im_machine : Hw.Machine.image;
  im_now : Sim.Time.ns;
  (* Heap and timer-heap golden state lives inside those instances
     (copy-on-write, refreshed by [snapshot] below), not in the image. *)
  im_static_locks : lock_image list;
  im_percpu : percpu_image array;
  im_runq : Domain.vcpu list array;
  im_curr : Domain.vcpu option array;
  im_domains : domain_image list; (* ascending domid = boot insertion order *)
  im_cycles_total : int;
  im_cycles_logging : int;
  im_cycles_entries : int;
  im_watchdog_soft : int array;
  im_need_resched : bool array;
  im_time_sync_count : int;
  im_next_domid : int;
  im_static_data_ok : bool;
  im_static_data_note : string;
  im_recovery_handler_ok : bool;
  im_bootline_ok : bool;
  im_cur_activity : activity;
  im_cur_cpu : int;
  im_cur_step : int;
}

let capture_vcpu (v : Domain.vcpu) =
  {
    iv_vcpu = v;
    iv_processor = v.Domain.processor;
    iv_runstate = v.Domain.runstate;
    iv_is_current = v.Domain.is_current;
    iv_curr_slot = v.Domain.curr_slot;
    iv_guest_regs = Hw.Regs.copy v.Domain.guest_regs;
    iv_fsgs_valid = v.Domain.fsgs_valid;
    iv_in_hypercall = v.Domain.in_hypercall;
    iv_in_syscall_forward = v.Domain.in_syscall_forward;
    iv_retry_pending = v.Domain.retry_pending;
    iv_syscall_retry_pending = v.Domain.syscall_retry_pending;
    iv_lost_work = v.Domain.lost_work;
  }

let restore_vcpu im =
  let v = im.iv_vcpu in
  v.Domain.processor <- im.iv_processor;
  v.Domain.runstate <- im.iv_runstate;
  v.Domain.is_current <- im.iv_is_current;
  v.Domain.curr_slot <- im.iv_curr_slot;
  Hw.Regs.restore ~from:im.iv_guest_regs v.Domain.guest_regs;
  v.Domain.fsgs_valid <- im.iv_fsgs_valid;
  v.Domain.in_hypercall <- im.iv_in_hypercall;
  v.Domain.in_syscall_forward <- im.iv_in_syscall_forward;
  v.Domain.retry_pending <- im.iv_retry_pending;
  v.Domain.syscall_retry_pending <- im.iv_syscall_retry_pending;
  v.Domain.lost_work <- im.iv_lost_work

let capture_domain (d : Domain.t) =
  {
    id_dom = d;
    id_alive = d.Domain.alive;
    id_struct_ok = d.Domain.struct_ok;
    id_guest_failed = d.Domain.guest_failed;
    id_guest_sdc = d.Domain.guest_sdc;
    id_owned_frames = d.Domain.owned_frames;
    id_heap_objs = d.Domain.heap_objs;
    id_vcpus = Array.map capture_vcpu d.Domain.vcpus;
    id_evtchn =
      Array.map
        (fun (c : Evtchn.chan) -> (c.Evtchn.bound, c.Evtchn.pending, c.Evtchn.masked))
        d.Domain.evtchn.Evtchn.chans;
    id_evtchn_lock = capture_lock d.Domain.evtchn.Evtchn.lock;
    id_grants =
      Array.map
        (fun (e : Grant.entry) -> (e.Grant.in_use, e.Grant.frame, e.Grant.mapped_by))
        d.Domain.grants.Grant.entries;
    id_grant_lock = capture_lock d.Domain.grants.Grant.lock;
    id_page_lock = capture_lock d.Domain.page_lock;
  }

let restore_domain im =
  let d = im.id_dom in
  d.Domain.alive <- im.id_alive;
  d.Domain.struct_ok <- im.id_struct_ok;
  d.Domain.guest_failed <- im.id_guest_failed;
  d.Domain.guest_sdc <- im.id_guest_sdc;
  d.Domain.owned_frames <- im.id_owned_frames;
  d.Domain.heap_objs <- im.id_heap_objs;
  Array.iter restore_vcpu im.id_vcpus;
  Array.iteri
    (fun i (c : Evtchn.chan) ->
      let bound, pending, masked = im.id_evtchn.(i) in
      c.Evtchn.bound <- bound;
      c.Evtchn.pending <- pending;
      c.Evtchn.masked <- masked)
    d.Domain.evtchn.Evtchn.chans;
  restore_lock im.id_evtchn_lock;
  Array.iteri
    (fun i (e : Grant.entry) ->
      let in_use, frame, mapped_by = im.id_grants.(i) in
      e.Grant.in_use <- in_use;
      e.Grant.frame <- frame;
      e.Grant.mapped_by <- mapped_by)
    d.Domain.grants.Grant.entries;
  restore_lock im.id_grant_lock;
  restore_lock im.id_page_lock

let snapshot t =
  Pfn.snapshot t.pfn;
  Heap.snapshot t.heap;
  Timer_heap.snapshot t.timers;
  let static_locks = ref [] in
  Spinlock.Segment.iter t.static_segment (fun l ->
      static_locks := capture_lock l :: !static_locks);
  {
    im_config = t.config;
    im_machine = Hw.Machine.snapshot t.machine;
    im_now = Sim.Clock.now t.clock;
    im_static_locks = !static_locks;
    im_percpu =
      Array.map
        (fun (p : Percpu.t) ->
          {
            ip_local_irq_count = p.Percpu.local_irq_count;
            ip_in_hypercall_depth = p.Percpu.in_hypercall_depth;
            ip_curr_domid = p.Percpu.curr_domid;
            ip_curr_vcpuid = p.Percpu.curr_vcpuid;
            ip_fsgs_saved = p.Percpu.fsgs_saved;
            ip_saved_fs = p.Percpu.saved_fs;
            ip_saved_gs = p.Percpu.saved_gs;
            ip_heap_lock = capture_lock p.Percpu.heap_lock;
          })
        t.percpu;
    im_runq = Array.copy t.sched.Sched.runq;
    im_curr = Array.copy t.sched.Sched.curr;
    im_domains = List.map capture_domain (all_domains t);
    im_cycles_total = t.cycles.Cycle_account.total;
    im_cycles_logging = t.cycles.Cycle_account.logging;
    im_cycles_entries = t.cycles.Cycle_account.entries;
    im_watchdog_soft = Array.copy t.watchdog_soft;
    im_need_resched = Array.copy t.need_resched_flags;
    im_time_sync_count = t.time_sync_count;
    im_next_domid = t.next_domid;
    im_static_data_ok = t.static_data_ok;
    im_static_data_note = t.static_data_note;
    im_recovery_handler_ok = t.recovery_handler_ok;
    im_bootline_ok = t.bootline_ok;
    im_cur_activity = t.cur_activity;
    im_cur_cpu = t.cur_cpu;
    im_cur_step = t.cur_step;
  }

let restore t (im : image) =
  Pfn.restore t.pfn;
  Heap.restore t.heap;
  Timer_heap.restore t.timers;
  t.config <- im.im_config;
  Hw.Machine.restore t.machine im.im_machine;
  t.clock.Sim.Clock.now <- im.im_now;
  List.iter restore_lock im.im_static_locks;
  Array.iteri
    (fun i (p : Percpu.t) ->
      let s = im.im_percpu.(i) in
      p.Percpu.local_irq_count <- s.ip_local_irq_count;
      p.Percpu.in_hypercall_depth <- s.ip_in_hypercall_depth;
      p.Percpu.curr_domid <- s.ip_curr_domid;
      p.Percpu.curr_vcpuid <- s.ip_curr_vcpuid;
      p.Percpu.fsgs_saved <- s.ip_fsgs_saved;
      p.Percpu.saved_fs <- s.ip_saved_fs;
      p.Percpu.saved_gs <- s.ip_saved_gs;
      restore_lock s.ip_heap_lock)
    t.percpu;
  Array.blit im.im_runq 0 t.sched.Sched.runq 0 (Array.length im.im_runq);
  Array.blit im.im_curr 0 t.sched.Sched.curr 0 (Array.length im.im_curr);
  Hashtbl.reset t.domains;
  List.iter
    (fun di ->
      restore_domain di;
      Hashtbl.replace t.domains di.id_dom.Domain.domid di.id_dom)
    im.im_domains;
  t.cycles.Cycle_account.total <- im.im_cycles_total;
  t.cycles.Cycle_account.logging <- im.im_cycles_logging;
  t.cycles.Cycle_account.entries <- im.im_cycles_entries;
  Array.blit im.im_watchdog_soft 0 t.watchdog_soft 0
    (Array.length im.im_watchdog_soft);
  Array.blit im.im_need_resched 0 t.need_resched_flags 0
    (Array.length im.im_need_resched);
  t.time_sync_count <- im.im_time_sync_count;
  t.next_domid <- im.im_next_domid;
  t.static_data_ok <- im.im_static_data_ok;
  t.static_data_note <- im.im_static_data_note;
  t.recovery_handler_ok <- im.im_recovery_handler_ok;
  t.bootline_ok <- im.im_bootline_ok;
  t.step_hook <- None;
  t.cur_activity <- im.im_cur_activity;
  t.cur_cpu <- im.im_cur_cpu;
  t.cur_step <- im.im_cur_step;
  (* Mirror [reboot_in_place]: the indexed-name tables depend only on
     the ABI sub-op limit, rebuilt only if the restored config moved it. *)
  if
    Array.length t.pte_write_names
    <> im.im_config.Config.max_hypercall_subops + 1
  then begin
    t.pte_write_names <-
      indexed_names "pte_write_" im.im_config.Config.max_hypercall_subops;
    t.grant_map_names <-
      indexed_names "grant_map_" im.im_config.Config.max_hypercall_subops;
    t.ring_io_names <-
      indexed_names "ring_io_" im.im_config.Config.max_hypercall_subops;
    t.grant_unmap_names <-
      indexed_names "grant_unmap_" im.im_config.Config.max_hypercall_subops
  end

(* ------------------------------------------------------------------ *)
(* The stepper: instrumented micro-step execution                      *)
(* ------------------------------------------------------------------ *)

let cycles_to_ns cycles = (cycles / 3) + 1 (* ~2.9 GHz *)

(* Enter an activity: every [step] until the next [begin_activity] is
   accounted against it. *)
let begin_activity t activity cpu =
  t.cur_activity <- activity;
  t.cur_cpu <- cpu;
  t.cur_step <- 0

(* One instrumented micro-step: charge the cycles, advance the clock and
   let the step hook observe (and possibly abandon or corrupt) the
   execution, then the caller runs the step's body inline. Accounting
   *precedes* the body, so a hook that raises [Abandoned] stops the
   activity with that step's effects not yet applied -- the same contract
   the previous closure-passing stepper had, minus the per-step closure
   and context-record allocations. *)
let step ?(cycles = 150) t step_name =
  let step_index = t.cur_step in
  t.cur_step <- step_index + 1;
  (* The cycle/clock charges are record-field updates written out inline:
     this runs ~18k times per injection run and, without flambda, each of
     the equivalent cross-module calls (Cycle_account.charge,
     Hw.Cpu.charge_cycles, Sim.Clock.advance_by) costs more than the add
     it performs. [cycles_to_ns] is always positive, so bypassing
     Clock.advance_by's negative-delta check loses nothing. *)
  let cyc = t.cycles in
  cyc.Cycle_account.total <- cyc.Cycle_account.total + cycles;
  let cpu = t.machine.Hw.Machine.cpus.(t.cur_cpu) in
  cpu.Hw.Cpu.unhalted_cycles <- cpu.Hw.Cpu.unhalted_cycles + cycles;
  let clk = t.clock in
  clk.Sim.Clock.now <- clk.Sim.Clock.now + cycles_to_ns cycles;
  match t.step_hook with
  | Some hook -> hook t t.cur_activity step_index step_name t.cur_cpu
  | None -> ()

(* Journal append helper: charges the logging cycles that produce the
   Figure 3 overhead. Same inlined field updates as [step]: the journal
   write path runs a few thousand times per run. *)
let journal_log t (journal : Journal.t) entry =
  if journal.Journal.enabled then begin
    let cyc = t.cycles in
    cyc.Cycle_account.total <- cyc.Cycle_account.total + Journal.cycles_per_write;
    cyc.Cycle_account.logging <-
      cyc.Cycle_account.logging + Journal.cycles_per_write;
    let clk = t.clock in
    clk.Sim.Clock.now <- clk.Sim.Clock.now + cycles_to_ns Journal.cycles_per_write;
    Obs.Metrics.incr t.obs.Obs.Recorder.journal_writes;
    (* Flight ring: entry kinds are constant strings, so this is pure
       array stores -- always on, no level filter. *)
    Obs.Flight.note t.journal_flight ~name:(Journal.entry_kind entry)
      ~time:clk.Sim.Clock.now;
    if Obs.Recorder.enabled t.obs Obs.Event.Debug then
      observe t Obs.Event.Debug
        (Obs.Event.Journal_append
           { kind = Journal.entry_kind entry; depth = Journal.depth journal + 1 })
  end;
  Journal.log journal entry

(* ------------------------------------------------------------------ *)
(* Hypercall handlers                                                  *)
(* ------------------------------------------------------------------ *)

let indexed_name table prefix i =
  if i < Array.length table then table.(i) else Printf.sprintf "%s%d" prefix i

(* Random-element selection over filtered collections, as two passes
   (count, then walk to the k-th match) instead of materialising the
   filtered list. The single [Rng.int] draw is over the same bound as
   before, so the streams -- and the chosen elements -- are identical. *)
let rec count_writable t acc = function
  | [] -> acc
  | f :: rest ->
    count_writable t
      (if (Pfn.get t.pfn f).Pfn.ptype = Pfn.Writable then acc + 1 else acc)
      rest

let rec nth_writable t k = function
  | [] -> -1 (* unreachable: k < count_writable *)
  | f :: rest ->
    if (Pfn.get t.pfn f).Pfn.ptype = Pfn.Writable then
      if k = 0 then f else nth_writable t (k - 1) rest
    else nth_writable t k rest

let pick_writable_frame t rng (dom : Domain.t) =
  match count_writable t 0 dom.Domain.owned_frames with
  | 0 -> None
  | n -> Some (nth_writable t (Sim.Rng.int rng n) dom.Domain.owned_frames)

(* Whether [f] backs an in-use grant entry (the membership test formerly
   done against a freshly built list of granted frames). *)
let rec frame_granted (entries : Grant.entry array) f i =
  i < Array.length entries
  && ((entries.(i).Grant.in_use && entries.(i).Grant.frame = f)
     || frame_granted entries f (i + 1))

let rec count_free_grant_slots (entries : Grant.entry array) acc i =
  if i >= Array.length entries then acc
  else
    count_free_grant_slots entries
      (if entries.(i).Grant.in_use && entries.(i).Grant.mapped_by = -1 then
         acc + 1
       else acc)
      (i + 1)

let rec nth_free_grant_slot (entries : Grant.entry array) k i =
  let e = entries.(i) in
  if e.Grant.in_use && e.Grant.mapped_by = -1 then
    if k = 0 then e else nth_free_grant_slot entries (k - 1) (i + 1)
  else nth_free_grant_slot entries k (i + 1)

(* mmu_update: pin a fresh frame as a page table (get ref, write PTEs,
   validate) and unpin an old one. The validate/commit gap is the
   non-idempotent retry hazard of Section IV; code reordering moves the
   critical updates as late as possible, the undo journal makes them
   reversible. *)
let exec_mmu_update t journal (dom : Domain.t) (record : Hypercalls.record)
    ~entries =
  step t "lock_page_alloc";
  Spinlock.acquire dom.Domain.page_lock ~cpu:0;
  let target, old_frame =
    match record.Hypercalls.target_frames with
    | f :: rest ->
      (Pfn.get t.pfn f, match rest with o :: _ -> Some o | [] -> None)
    | [] ->
      step t "alloc_frame";
      let d = Pfn.alloc_frame t.pfn ~owner:dom.Domain.domid ~ptype:Pfn.Page_table in
      (* The table being replaced: a currently pinned page-table frame
         (not one backing a grant entry). *)
      let old_frame =
        List.find_opt
          (fun f ->
            let o = Pfn.get t.pfn f in
            o.Pfn.ptype = Pfn.Page_table && o.Pfn.validated
            && f <> d.Pfn.index
            && not (frame_granted dom.Domain.grants.Grant.entries f 0))
          dom.Domain.owned_frames
      in
      record.Hypercalls.target_frames <-
        (d.Pfn.index :: (match old_frame with Some o -> [ o ] | None -> []));
      record.Hypercalls.fresh_frames <- [ d.Pfn.index ];
      dom.Domain.owned_frames <- d.Pfn.index :: dom.Domain.owned_frames;
      (d, old_frame)
  in
  (* Unpin the table being replaced: invalidate + drop the pin
     reference. The frame keeps its allocation reference and returns to
     the guest's writable pool (a later decrease_reservation frees it);
     unpinning must not orphan it. Non-idempotent (retrying invalidates
     an already-invalid frame); reversible only through the undo
     journal -- code reordering cannot move this, because the PTE writes
     below must not race with a still-pinned old table. *)
  (match old_frame with
  | Some o ->
    let od = Pfn.get t.pfn o in
    step t "unpin_old_table";
    if od.Pfn.validated then begin
      journal_log t journal (Journal.Validated_cleared od);
      Pfn.invalidate od;
      journal_log t journal (Journal.Type_change (od, od.Pfn.ptype));
      journal_log t journal (Journal.Owner_change (od, od.Pfn.owner));
      journal_log t journal (Journal.Use_count_delta (od, -1));
      Pfn.put_page od;
      if od.Pfn.use_count > 0 then begin
        Pfn.touch od;
        od.Pfn.ptype <- Pfn.Writable
      end
    end
    else
      (* Retry without undo: double unpin. *)
      Pfn.invalidate od
  | None -> ());
  (* Retrying with the same target: if the first execution already
     validated it and nothing undid that, [Pfn.validate] panics -- the
     paper's "re-execution results in an inconsistent state". Code
     reordering (when this handler is among the enhanced ones) moves the
     critical update to the end, shrinking the window. *)
  if not (t.config.Config.code_reordering && record.Hypercalls.enhanced) then begin
    step t "validate_early";
    if not target.Pfn.validated then begin
      journal_log t journal (Journal.Validated_set target);
      Pfn.validate target
    end
    else Pfn.validate target (* panics: double validation *)
  end;
  for i = 1 to entries do
    step ~cycles:120 t (indexed_name t.pte_write_names "pte_write_" i)
  done;
  step t "get_page_ref";
  journal_log t journal (Journal.Use_count_delta (target, 1));
  Pfn.get_page target;
  if t.config.Config.code_reordering && record.Hypercalls.enhanced then begin
    step t "validate_late";
    if not target.Pfn.validated then begin
      journal_log t journal (Journal.Validated_set target);
      Pfn.validate target
    end
    else Pfn.validate target
  end;
  step t "unlock_page_alloc";
  Spinlock.release dom.Domain.page_lock ~cpu:0

let exec_update_va_mapping t rng journal (dom : Domain.t)
    (record : Hypercalls.record) =
  let frame =
    match record.Hypercalls.target_frames with
    | f :: _ -> Some f
    | [] ->
      let f = pick_writable_frame t rng dom in
      (match f with
      | Some f -> record.Hypercalls.target_frames <- [ f ]
      | None -> ());
      f
  in
  match frame with
  | None -> ()
  | Some f ->
    let d = Pfn.get t.pfn f in
    step t "get_page";
    journal_log t journal (Journal.Use_count_delta (d, 1));
    Pfn.get_page d;
    step ~cycles:100 t "write_pte";
    step ~cycles:200 t "flush_tlb";
    step t "put_page";
    journal_log t journal (Journal.Use_count_delta (d, -1));
    Pfn.put_page d

let exec_memory_op_populate t journal (dom : Domain.t)
    (record : Hypercalls.record) =
  for i = 1 to 2 do
    ignore i;
    (* The buddy-allocator critical section under the static heap lock is
       short: acquire and release within the allocation step. *)
    step t "alloc_frame";
    Spinlock.acquire t.global_heap_lock ~cpu:0;
    let d = Pfn.alloc_frame t.pfn ~owner:dom.Domain.domid ~ptype:Pfn.Writable in
    Spinlock.release t.global_heap_lock ~cpu:0;
    journal_log t journal
      (Journal.Undo_fn
         (fun () ->
           if d.Pfn.use_count > 0 then Pfn.put_page d));
    record.Hypercalls.fresh_frames <- d.Pfn.index :: record.Hypercalls.fresh_frames;
    step t "assign_page";
    dom.Domain.owned_frames <- d.Pfn.index :: dom.Domain.owned_frames
  done

let exec_memory_op_decrease t rng journal (dom : Domain.t)
    (record : Hypercalls.record) =
  (match record.Hypercalls.target_frames with
  | [] ->
    (match pick_writable_frame t rng dom with
    | Some f -> record.Hypercalls.target_frames <- [ f ]
    | None -> ())
  | _ -> ());
  match record.Hypercalls.target_frames with
  | [] -> ()
  | f :: _ ->
    let d = Pfn.get t.pfn f in
    (* Double execution without undo double-puts the frame: underflow. *)
    step t "put_page";
    journal_log t journal (Journal.Type_change (d, d.Pfn.ptype));
    journal_log t journal (Journal.Owner_change (d, d.Pfn.owner));
    journal_log t journal (Journal.Use_count_delta (d, -1));
    Spinlock.acquire t.global_heap_lock ~cpu:0;
    Pfn.put_page d;
    Spinlock.release t.global_heap_lock ~cpu:0;
    step t "remove_from_domain";
    dom.Domain.owned_frames <-
      List.filter (fun f' -> f' <> f) dom.Domain.owned_frames

let exec_grant_table_op t rng journal (dom : Domain.t)
    (record : Hypercalls.record) ~subops =
  step t "lock_grant";
  Spinlock.acquire dom.Domain.grants.Grant.lock ~cpu:0;
  (match record.Hypercalls.target_frames with
  | [] -> (
    (* Map then unmap a granted frame per sub-op pair. *)
    let entries = dom.Domain.grants.Grant.entries in
    match count_free_grant_slots entries 0 0 with
    | 0 -> ()
    | n ->
      let e = nth_free_grant_slot entries (Sim.Rng.int rng n) 0 in
      record.Hypercalls.target_frames <- [ e.Grant.slot ])
  | _ -> ());
  (match record.Hypercalls.target_frames with
  | slot :: _ ->
    let e = dom.Domain.grants.Grant.entries.(slot) in
    for i = 1 to subops do
      let frame_desc =
        if e.Grant.frame >= 0 then Some (Pfn.get t.pfn e.Grant.frame) else None
      in
      step t (indexed_name t.grant_map_names "grant_map_" i);
      (* Retrying a completed map panics ("already mapped") unless the
         undo log reverted it. *)
      journal_log t journal
        (Journal.Undo_fn (fun () -> if e.Grant.mapped_by <> -1 then e.Grant.mapped_by <- -1));
      Grant.map dom.Domain.grants ~slot ~by:0;
      (match frame_desc with
      | Some d ->
        journal_log t journal (Journal.Use_count_delta (d, 1));
        Pfn.get_page d
      | None -> ());
      step ~cycles:400 t (indexed_name t.ring_io_names "ring_io_" i);
      step t (indexed_name t.grant_unmap_names "grant_unmap_" i);
      journal_log t journal
        (Journal.Undo_fn (fun () -> if e.Grant.mapped_by = -1 then e.Grant.mapped_by <- 0));
      Grant.unmap dom.Domain.grants ~slot;
      match frame_desc with
      | Some d ->
        journal_log t journal (Journal.Use_count_delta (d, -1));
        Pfn.put_page d
      | None -> ()
    done
  | [] -> ());
  step t "unlock_grant";
  Spinlock.release dom.Domain.grants.Grant.lock ~cpu:0

let exec_evtchn_send t (dom : Domain.t) =
  step t "lock_evtchn";
  Spinlock.acquire dom.Domain.evtchn.Evtchn.lock ~cpu:0;
  step t "set_pending";
  Evtchn.send dom.Domain.evtchn ~port:1;
  step t "unlock_evtchn";
  Spinlock.release dom.Domain.evtchn.Evtchn.lock ~cpu:0

let exec_sched_op_block t cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "lock_sched";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  (* A guest can only block the vCPU that is actually executing. *)
  let is_current =
    match Sched.current t.sched ~cpu with
    | Some v -> v == vcpu
    | None -> false
  in
  if is_current then begin
    step t "set_blocked";
    vcpu.Domain.runstate <- Domain.Blocked;
    step t "clear_percpu_curr";
    Sched.set_current t.sched ~cpu None;
    percpu.Percpu.curr_domid <- -1;
    percpu.Percpu.curr_vcpuid <- -1;
    step t "clear_vcpu_current";
    Sched.vcpu_clear_current vcpu;
    (* Pick someone else to run, if anyone is queued. *)
    step t "pick_next";
    (match Sched.dequeue t.sched ~cpu with
    | Some next ->
      step t "set_next_current";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next";
      Sched.vcpu_mark_current next ~cpu
    | None -> ());
    (* The event the guest blocked on arrives shortly (I/O completion):
       requeue the vCPU as runnable. *)
    step t "arrange_wakeup";
    if vcpu.Domain.runstate = Domain.Blocked then Sched.enqueue t.sched vcpu
  end
  else step ~cycles:80 t "poll_pending_events";
  step t "unlock_sched";
  Spinlock.release percpu.Percpu.heap_lock ~cpu

let exec_set_timer_op t cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "lock_timers";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  step t "insert_timer";
  let now = Sim.Clock.now t.clock in
  ignore
    (Timer_heap.add t.timers
       ~deadline:(now + Sim.Time.ms 1)
       (Timer_heap.Vcpu_timer (vcpu.Domain.domid, vcpu.Domain.vid)));
  step t "unlock_timers";
  Spinlock.release percpu.Percpu.heap_lock ~cpu

let exec_console_io t cpu =
  step t "lock_console";
  Spinlock.acquire t.console_lock ~cpu;
  step ~cycles:300 t "emit";
  step t "unlock_console";
  Spinlock.release t.console_lock ~cpu

(* Toolstack domain creation: walks the domain list under the static
   domlist lock, allocates control structures from the heap and memory
   from the frame allocator -- the path that must still work after
   recovery for the hypervisor to count as healthy. *)
let exec_domctl_create t cpu ~vcpu_pin ~mem_frames =
  Domain.check_struct (privvm t);
  step t "lock_domlist";
  Spinlock.acquire t.domlist_lock ~cpu;
  if not t.static_data_ok then
    Crash.panic "domctl: static configuration data corrupted (%s)"
      t.static_data_note;
  step t "alloc_domain_struct";
  let dom =
    create_domain_internal t ~privileged:false ~vcpu_pins:[ vcpu_pin ]
      ~mem_frames
  in
  step t "unlock_domlist";
  Spinlock.release t.domlist_lock ~cpu;
  dom

let exec_domctl_destroy t cpu (dom : Domain.t) =
  step t "lock_domlist";
  Spinlock.acquire t.domlist_lock ~cpu;
  step t "teardown";
  destroy_domain_internal t dom;
  step t "unlock_domlist";
  Spinlock.release t.domlist_lock ~cpu

(* First unbound event channel, lowest port first (the order the old
   [Array.to_list |> find_opt] walk produced). *)
let rec first_unbound_chan (chans : Evtchn.chan array) i =
  if i >= Array.length chans then -1
  else if not chans.(i).Evtchn.bound then i
  else first_unbound_chan chans (i + 1)

(* Dispatch a hypercall body. [record] carries retry state. *)
let rec exec_hypercall_body t rng journal cpu (vcpu : Domain.vcpu)
    (record : Hypercalls.record) (kind : Hypercalls.kind) =
  let dom =
    match Hashtbl.find t.domains vcpu.Domain.domid with
    | d -> d
    | exception Not_found ->
      Crash.panic "hypercall from dead domain %d" vcpu.Domain.domid
  in
  Domain.check_struct dom;
  match kind with
  | Hypercalls.Mmu_update entries -> exec_mmu_update t journal dom record ~entries
  | Hypercalls.Update_va_mapping -> exec_update_va_mapping t rng journal dom record
  | Hypercalls.Memory_op_populate -> exec_memory_op_populate t journal dom record
  | Hypercalls.Memory_op_decrease -> exec_memory_op_decrease t rng journal dom record
  | Hypercalls.Grant_table_op subops ->
    exec_grant_table_op t rng journal dom record ~subops
  | Hypercalls.Event_channel_send -> exec_evtchn_send t dom
  | Hypercalls.Event_channel_bind -> (
    step t "bind_port";
    let chans = dom.Domain.evtchn.Evtchn.chans in
    match first_unbound_chan chans 0 with
    | -1 -> ()
    | i -> Evtchn.bind dom.Domain.evtchn ~port:chans.(i).Evtchn.port)
  | Hypercalls.Sched_op_yield ->
    step t "yield";
    t.need_resched_flags.(cpu) <- true
  | Hypercalls.Sched_op_block -> exec_sched_op_block t cpu vcpu
  | Hypercalls.Set_timer_op -> exec_set_timer_op t cpu vcpu
  | Hypercalls.Console_io -> exec_console_io t cpu
  | Hypercalls.Vcpu_op_info -> step ~cycles:100 t "read_info"
  | Hypercalls.Domctl_create_domain ->
    ignore (exec_domctl_create t cpu ~vcpu_pin:3 ~mem_frames:32)
  | Hypercalls.Domctl_destroy_domain ->
    (match app_domains t with
    | d :: _ -> exec_domctl_destroy t cpu d
    | [] -> ())
  | Hypercalls.Domctl_pause_domain -> step t "pause"
  | Hypercalls.Multicall kinds ->
    (* Each component gets its own argument record (created once, reused
       verbatim on retry); all components share the batch's journal. *)
    if record.Hypercalls.children = [] then
      record.Hypercalls.children <-
        List.map
          (fun k ->
            Hypercalls.make_record ~enhanced:record.Hypercalls.enhanced
              ~logging:false k)
          kinds;
    List.iteri
      (fun i child ->
        if i >= record.Hypercalls.sub_completed then begin
          exec_hypercall_body t rng journal cpu vcpu child
            child.Hypercalls.kind;
          if t.config.Config.hypercall_progress_tracking then begin
            (* Fine-granularity batched retry: log each component's
               completion so a retry skips it. *)
            Cycle_account.charge_logging t.cycles 40;
            record.Hypercalls.sub_completed <- record.Hypercalls.sub_completed + 1;
            Journal.commit journal
          end
        end)
      record.Hypercalls.children

let journal_of_record _t (record : Hypercalls.record) = record.Hypercalls.journal

(* ------------------------------------------------------------------ *)
(* Top-level activities                                                *)
(* ------------------------------------------------------------------ *)

let run_timer_action t cpu (e : Timer_heap.event) =
  Obs.Metrics.incr t.obs.Obs.Recorder.timer_fires;
  if Obs.Recorder.enabled t.obs Obs.Event.Debug then
    observe t ~cpu Obs.Event.Debug
      (Obs.Event.Timer_fire { action = Timer_heap.action_name e.Timer_heap.action });
  match e.Timer_heap.action with
  | Timer_heap.Time_sync ->
    step t "time_sync";
    t.time_sync_count <- t.time_sync_count + 1
  | Timer_heap.Sched_tick c ->
    step t "sched_tick";
    t.need_resched_flags.(c) <- true
  | Timer_heap.Watchdog_tick ->
    step t "watchdog_tick";
    for i = 0 to Array.length t.watchdog_soft - 1 do
      t.watchdog_soft.(i) <- t.watchdog_soft.(i) + 1
    done
  | Timer_heap.Vcpu_timer (domid, vid) -> (
    step t "vcpu_timer";
    match Hashtbl.find t.domains domid with
    | d when d.Domain.alive ->
      let v = Domain.vcpu d vid in
      if v.Domain.runstate = Domain.Blocked then begin
        v.Domain.runstate <- Domain.Runnable;
        Sched.enqueue t.sched v
      end
    | _ | (exception Not_found) -> ())
  | Timer_heap.Generic_oneshot -> step t "oneshot"
  [@@warning "-27"]

(* The context-switch path, decomposed so an abandonment between the
   per-CPU update and the per-vCPU updates leaves the redundant records
   disagreeing. Returns [true] if the wrong register context would have
   been restored. *)
let do_context_switch t cpu =
  let percpu = t.percpu.(cpu) in
  step t "lock_sched";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  step t "assert_not_in_irq";
  Percpu.assert_not_in_irq percpu;
  let wrong_context = ref false in
  step t "pick_next";
  (match Sched.dequeue t.sched ~cpu with
  | None -> ()
  | Some next ->
    (match Sched.current t.sched ~cpu with
    | Some prev when prev == next -> ()
    | Some prev ->
      (* The assertion-rich part of Xen's schedule(): metadata must
         agree before the switch. *)
      step t "assert_consistent";
      if not prev.Domain.is_current then
        Crash.assert_failed "schedule: cpu%d prev d%dv%d lost is_current" cpu
          prev.Domain.domid prev.Domain.vid;
      if prev.Domain.curr_slot <> cpu then
        (* Disagreement that does not trip an assertion restores a
           stale context instead. *)
        wrong_context := true;
      step t "clear_prev";
      Sched.vcpu_clear_current prev;
      if prev.Domain.runstate = Domain.Running then
        prev.Domain.runstate <- Domain.Runnable;
      Sched.enqueue t.sched prev;
      step t "set_percpu_curr";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next_current";
      Sched.vcpu_mark_current next ~cpu;
      step ~cycles:350 t "restore_context";
      (* Disagreeing redundant records make Xen restore a stale
         register context: the guest resumes with wrong registers. *)
      if !wrong_context then begin
        match domain t next.Domain.domid with
        | Some d when not d.Domain.is_idle -> d.Domain.guest_failed <- true
        | Some _ | None -> ()
      end
    | None ->
      step t "set_percpu_curr";
      Sched.set_current t.sched ~cpu (Some next);
      percpu.Percpu.curr_domid <- next.Domain.domid;
      percpu.Percpu.curr_vcpuid <- next.Domain.vid;
      step t "mark_next_current";
      Sched.vcpu_mark_current next ~cpu;
      step ~cycles:350 t "restore_context"));
  step t "unlock_sched";
  Spinlock.release percpu.Percpu.heap_lock ~cpu;
  t.need_resched_flags.(cpu) <- false;
  !wrong_context

let rec drain_due_timers t cpu ~now budget =
  if budget > 0 then begin
    match Timer_heap.pop_due t.timers ~now with
    | None -> ()
    | Some e ->
      (* The periodic-timer infrastructure re-arms scheduler/watchdog
         ticks up front; the time-sync handler re-arms itself at the
         end of its (longer) handler, leaving the pop-to-requeue gap
         that "Reactivate recurring timer events" closes. *)
      (match e.Timer_heap.action with
      | Timer_heap.Time_sync ->
        run_timer_action t cpu e;
        Timer_heap.requeue t.timers e ~now:(Sim.Clock.now t.clock)
      | Timer_heap.Sched_tick _ | Timer_heap.Watchdog_tick
      | Timer_heap.Vcpu_timer _ | Timer_heap.Generic_oneshot ->
        Timer_heap.requeue t.timers e ~now:(Sim.Clock.now t.clock);
        run_timer_action t cpu e);
      drain_due_timers t cpu ~now (budget - 1)
  end

let do_timer_tick t cpu =
  let percpu = t.percpu.(cpu) in
  let apic = (Hw.Machine.cpu t.machine cpu).Hw.Cpu.apic in
  step t "irq_enter";
  Percpu.irq_enter percpu;
  (* The APIC one-shot timer fired to get here: it is now disarmed
     and stays so until the reprogram step below. *)
  Hw.Apic.disarm_timer apic;
  Hw.Apic.begin_service apic 0xf0;
  step t "lock_timers";
  Spinlock.acquire percpu.Percpu.heap_lock ~cpu;
  let now = Sim.Clock.now t.clock in
  (* Each due event is popped, its handler runs and (for recurring
     events) it is re-inserted at the end of the handler -- the pop-to-
     requeue gap is the window the "Reactivate recurring timer events"
     enhancement closes. *)
  drain_due_timers t cpu ~now 3;
  step t "unlock_timers";
  Spinlock.release percpu.Percpu.heap_lock ~cpu;
  step t "reprogram_apic";
  let deadline =
    match Timer_heap.next_deadline t.timers with
    | Some d -> max d (Sim.Clock.now t.clock + Sim.Time.us 10)
    | None -> Sim.Clock.now t.clock + Sim.Time.ms 10
  in
  Hw.Apic.program_timer apic ~deadline;
  step t "apic_eoi";
  Hw.Apic.eoi apic 0xf0;
  step t "irq_exit";
  Percpu.irq_exit percpu
(* Resched requests raised by the tick are honoured by the softirq path
   on the next idle poll / explicit context switch. *)

let do_device_interrupt t ~line ~target_dom =
  let cpu = 0 (* device interrupts are routed to the PrivVM's CPU *) in
  let percpu = t.percpu.(cpu) in
  let apic = (Hw.Machine.cpu t.machine cpu).Hw.Cpu.apic in
  let vector, _, masked = Hw.Ioapic.read t.machine.Hw.Machine.ioapic ~line in
  if masked || vector = 0 then
    (* Routing lost (e.g. after a reboot without the IO-APIC log):
       the device's interrupts simply never arrive. *)
    ()
  else begin
    step t "irq_enter";
    Percpu.irq_enter percpu;
    Hw.Apic.begin_service apic vector;
    (match Hashtbl.find t.domains target_dom with
    | dom when dom.Domain.alive ->
      step t "lock_evtchn";
      Spinlock.acquire dom.Domain.evtchn.Evtchn.lock ~cpu;
      step t "notify_guest";
      Evtchn.send dom.Domain.evtchn ~port:2;
      (* The event wakes the target vCPU if it blocked. *)
      let vcpus = dom.Domain.vcpus in
      for i = 0 to Array.length vcpus - 1 do
        let v = vcpus.(i) in
        if v.Domain.runstate = Domain.Blocked then Sched.enqueue t.sched v
      done;
      step t "unlock_evtchn";
      Spinlock.release dom.Domain.evtchn.Evtchn.lock ~cpu
    | _ | (exception Not_found) -> ());
    step t "apic_eoi";
    Hw.Apic.eoi apic vector;
    step t "irq_exit";
    Percpu.irq_exit percpu
  end

(* Fraction of the non-idempotent hypercall paths actually covered by the
   logging/reordering mitigation (the paper covered the handlers fault
   injection surfaced, not all of them: 84% -> 96% recovery rate). *)
let mitigation_coverage = 0.80

let do_hypercall t rng ~cpu (vcpu : Domain.vcpu) kind ~retry_of =
  let percpu = t.percpu.(cpu) in
  let record =
    match retry_of with
    | Some r ->
      r.Hypercalls.retries <- r.Hypercalls.retries + 1;
      r
    | None ->
      let enhanced =
        (not (Hypercalls.non_idempotent kind))
        || Sim.Rng.float rng 1.0 < mitigation_coverage
      in
      Hypercalls.make_record ~enhanced
        ~logging:t.config.Config.nonidempotent_logging kind
  in
  let journal = journal_of_record t record in
  let domid = vcpu.Domain.domid and vid = vcpu.Domain.vid in
  Obs.Metrics.incr t.obs.Obs.Recorder.hypercall_entries;
  (* Flight ring: [static_name] is a pre-interned constant (unlike
     [Hypercalls.name], which formats), so the note allocates nothing. *)
  Obs.Flight.note t.hc_flight
    ~name:(Hypercalls.static_name kind)
    ~time:(Sim.Clock.now t.clock);
  (* [Hypercalls.name] formats, so even computing the payload's fields is
     deferred until the event is known to pass the level filter. *)
  (match retry_of with
  | Some r ->
    Obs.Metrics.incr t.obs.Obs.Recorder.hypercall_retries;
    if Obs.Recorder.enabled t.obs Obs.Event.Info then
      observe t ~cpu ~domid Obs.Event.Info
        (Obs.Event.Hypercall_retry
           { domid; vid; kind = Hypercalls.name kind; attempt = r.Hypercalls.retries })
  | None ->
    if Obs.Recorder.enabled t.obs Obs.Event.Debug then
      observe t ~cpu ~domid Obs.Event.Debug
        (Obs.Event.Hypercall_entry
           { domid; vid; kind = Hypercalls.name kind; retry = false }));
  step t "hypercall_entry";
  Cycle_account.note_entry t.cycles;
  percpu.Percpu.in_hypercall_depth <- percpu.Percpu.in_hypercall_depth + 1;
  if t.config.Config.save_fs_gs then begin
    (* The x86-64 port fix: explicitly save the guest's FS/GS. *)
    Cycle_account.charge t.cycles 30;
    Percpu.save_guest_fsgs percpu vcpu.Domain.guest_regs
  end;
  vcpu.Domain.in_hypercall <- Some record;
  exec_hypercall_body t rng journal cpu vcpu record kind;
  step t "hypercall_commit";
  record.Hypercalls.committed <- true;
  let debug_on = Obs.Recorder.enabled t.obs Obs.Event.Debug in
  let entries = Journal.depth journal in
  if entries > 0 && debug_on then
    observe t ~cpu ~domid Obs.Event.Debug (Obs.Event.Journal_commit { entries });
  Journal.commit journal;
  if debug_on then
    observe t ~cpu ~domid Obs.Event.Debug
      (Obs.Event.Hypercall_commit { domid; vid; kind = Hypercalls.name kind });
  step t "hypercall_exit";
  vcpu.Domain.in_hypercall <- None;
  vcpu.Domain.retry_pending <- false;
  Percpu.clear_guest_fsgs percpu;
  percpu.Percpu.in_hypercall_depth <- max 0 (percpu.Percpu.in_hypercall_depth - 1)

let do_syscall_forward t ~cpu (vcpu : Domain.vcpu) =
  let percpu = t.percpu.(cpu) in
  step t "syscall_entry";
  Cycle_account.note_entry t.cycles;
  if t.config.Config.save_fs_gs then
    Percpu.save_guest_fsgs percpu vcpu.Domain.guest_regs;
  vcpu.Domain.in_syscall_forward <- true;
  step ~cycles:60 t "decode_target";
  step t "forward_to_kernel";
  step t "syscall_exit";
  vcpu.Domain.in_syscall_forward <- false;
  vcpu.Domain.syscall_retry_pending <- false;
  Percpu.clear_guest_fsgs percpu

let do_idle_poll t cpu =
  step ~cycles:50 t "check_softirq";
  if t.need_resched_flags.(cpu) then ignore (do_context_switch t cpu)

let execute t rng activity =
  match activity with
  | Timer_tick cpu ->
    begin_activity t activity cpu;
    do_timer_tick t cpu
  | Device_interrupt { line; target_dom } ->
    begin_activity t activity 0;
    do_device_interrupt t ~line ~target_dom
  | Hypercall { domid; vid; kind } ->
    (match Hashtbl.find t.domains domid with
    | dom when dom.Domain.alive ->
      let vcpu = Domain.vcpu dom vid in
      let cpu = vcpu.Domain.processor in
      begin_activity t activity cpu;
      do_hypercall t rng ~cpu vcpu kind ~retry_of:None
    | _ | (exception Not_found) -> ())
  | Syscall_forward { domid; vid } ->
    (match Hashtbl.find t.domains domid with
    | dom when dom.Domain.alive ->
      let vcpu = Domain.vcpu dom vid in
      let cpu = vcpu.Domain.processor in
      begin_activity t activity cpu;
      do_syscall_forward t ~cpu vcpu
    | _ | (exception Not_found) -> ())
  | Context_switch cpu ->
    begin_activity t activity cpu;
    ignore (do_context_switch t cpu)
  | Idle_poll cpu ->
    begin_activity t activity cpu;
    do_idle_poll t cpu

(* Execute an activity but abandon it (exactly as a discarded execution
   thread would be) at step [stop_at]: partial state stays in place. *)
let execute_partial t rng activity ~stop_at =
  let saved_hook = t.step_hook in
  let counter = ref 0 in
  t.step_hook <-
    Some
      (fun t' act idx name cpu ->
        (match saved_hook with Some h -> h t' act idx name cpu | None -> ());
        if !counter >= stop_at then raise Abandoned;
        incr counter);
  Fun.protect
    ~finally:(fun () -> t.step_hook <- saved_hook)
    (fun () -> try execute t rng activity with Abandoned -> ())

(* Retry a hypercall abandoned by recovery (the "hypercall retry"
   mechanism): optionally undo the journal first (non-idempotent
   mitigation), then re-execute with the same arguments. *)
let retry_hypercall t rng (vcpu : Domain.vcpu) =
  match vcpu.Domain.in_hypercall with
  | None -> ()
  | Some record ->
    let journal = journal_of_record t record in
    if t.config.Config.nonidempotent_logging then begin
      let entries = Journal.depth journal in
      if entries > 0 then begin
        Obs.Metrics.incr ~by:entries t.obs.Obs.Recorder.journal_undone;
        if Obs.Recorder.enabled t.obs Obs.Event.Info then
          observe t ~cpu:vcpu.Domain.processor ~domid:vcpu.Domain.domid
            Obs.Event.Info (Obs.Event.Journal_undo { entries })
      end;
      Journal.undo_all journal
    end;
    let cpu = vcpu.Domain.processor in
    let activity =
      Hypercall
        { domid = vcpu.Domain.domid; vid = vcpu.Domain.vid; kind = record.Hypercalls.kind }
    in
    begin_activity t activity cpu;
    do_hypercall t rng ~cpu vcpu record.Hypercalls.kind ~retry_of:(Some record)

let retry_syscall t (vcpu : Domain.vcpu) =
  let cpu = vcpu.Domain.processor in
  let activity = Syscall_forward { domid = vcpu.Domain.domid; vid = vcpu.Domain.vid } in
  begin_activity t activity cpu;
  do_syscall_forward t ~cpu vcpu

(* ------------------------------------------------------------------ *)
(* Consistency audit                                                   *)
(* ------------------------------------------------------------------ *)

type audit_report = {
  static_locks_held : int;
  heap_locks_held : bool;
  irq_counts_nonzero : int;
  sched_consistent : bool;
  pfn_inconsistent : int;
  heap_ok : bool;
  timer_structure_ok : bool;
  recurring_missing : int;
  apics_unarmed : int;
  static_data_ok : bool;
}

let audit t =
  let static_locks_held =
    let n = ref 0 in
    Spinlock.Segment.iter t.static_segment (fun l ->
        if Spinlock.is_held l then incr n);
    !n
  in
  let irq_counts_nonzero =
    Array.fold_left
      (fun acc (p : Percpu.t) -> if p.Percpu.local_irq_count <> 0 then acc + 1 else acc)
      0 t.percpu
  in
  let apics_unarmed =
    let n = ref 0 in
    Hw.Machine.iter_cpus t.machine (fun c ->
        if not (Hw.Apic.timer_armed c.Hw.Cpu.apic) then incr n);
    !n
  in
  {
    static_locks_held;
    heap_locks_held = Heap.any_heap_lock_held t.heap;
    irq_counts_nonzero;
    sched_consistent = Sched.audit t.sched (all_vcpus t);
    pfn_inconsistent = Pfn.count_inconsistent t.pfn;
    heap_ok = Heap.audit t.heap;
    timer_structure_ok = Timer_heap.structure_ok t.timers;
    recurring_missing = List.length (Timer_heap.missing_recurring t.timers);
    apics_unarmed;
    static_data_ok = t.static_data_ok;
  }

let audit_clean r =
  r.static_locks_held = 0 && (not r.heap_locks_held) && r.irq_counts_nonzero = 0
  && r.sched_consistent && r.pfn_inconsistent = 0 && r.heap_ok
  && r.timer_structure_ok && r.recurring_missing = 0 && r.apics_unarmed = 0
  && r.static_data_ok

(* Visit the audit's violations as (index, kind, magnitude) triples
   without materialising a list; [index] follows [audit_violation_kinds]
   order, so counter lookups against [t.audit_counters] are plain array
   reads (instruments are registered eagerly at [create] so fresh and
   reused recorders stay structurally identical). *)
let iter_violations r f =
  if r.static_locks_held > 0 then f 0 "static_locks_held" r.static_locks_held;
  if r.heap_locks_held then f 1 "heap_locks_held" 1;
  if r.irq_counts_nonzero > 0 then f 2 "irq_counts_nonzero" r.irq_counts_nonzero;
  if not r.sched_consistent then f 3 "sched_inconsistent" 1;
  if r.pfn_inconsistent > 0 then f 4 "pfn_inconsistent" r.pfn_inconsistent;
  if not r.heap_ok then f 5 "heap_corrupt" 1;
  if not r.timer_structure_ok then f 6 "timer_structure_bad" 1;
  if r.recurring_missing > 0 then f 7 "recurring_missing" r.recurring_missing;
  if r.apics_unarmed > 0 then f 8 "apics_unarmed" r.apics_unarmed;
  if not r.static_data_ok then f 9 "static_data_corrupt" 1

(* The same violations as (kind, magnitude) pairs, for callers that want
   a value rather than a visit. *)
let audit_violations r =
  let acc = ref [] in
  iter_violations r (fun _ kind count -> acc := (kind, count) :: !acc);
  List.rev !acc

(* Bump the per-kind [audit.*] counters and emit one typed
   [Audit_violation] event per violated invariant. Called wherever an
   audit is consulted for pass/fail (post-recovery classification,
   endurance cycles) so violations are queryable instead of living only
   in a formatted failure string. The counter bumps go through the
   cached [audit_counters] array: no name concatenation, no registry
   lookup, no intermediate list. *)
let record_audit_violations t r =
  iter_violations r (fun idx kind count ->
      Obs.Metrics.incr ~by:count t.audit_counters.(idx);
      if Obs.Recorder.enabled t.obs Obs.Event.Warn then
        observe t Obs.Event.Warn (Obs.Event.Audit_violation { kind; count }))

let pp_audit fmt r =
  Format.fprintf fmt
    "static_locks_held=%d heap_locks_held=%b irq_nonzero=%d sched_ok=%b \
     pfn_bad=%d heap_ok=%b timer_ok=%b recurring_missing=%d apics_unarmed=%d \
     static_data_ok=%b"
    r.static_locks_held r.heap_locks_held r.irq_counts_nonzero
    r.sched_consistent r.pfn_inconsistent r.heap_ok r.timer_structure_ok
    r.recurring_missing r.apics_unarmed r.static_data_ok
