(* Helpers for the suites that compare two machines ("twins") run from
   the same seed. *)

(* Drive a deterministic mixed warmup of *completed* activities: no
   in-flight hypervisor state is left behind, so the machine's state is
   a pure function of the seed and both copies in a twin test agree. *)
let warmup hv rng ~steps =
  let loads =
    [|
      Workloads.Workload.create Workloads.Workload.Netbench ~domid:1;
      Workloads.Workload.create Workloads.Workload.Unixbench ~domid:2;
      Workloads.Workload.create Workloads.Workload.Blkbench ~domid:3;
    |]
  in
  for _ = 1 to steps do
    Sim.Clock.advance_by hv.Hyper.Hypervisor.clock
      (Sim.Time.us (20 + Sim.Rng.int rng 180));
    let w = loads.(Sim.Rng.int rng (Array.length loads)) in
    Hyper.Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng w)
  done

(* A digest of a machine's state. Deliberately covers everything the
   recovery repairs -- the full pfn table (read through [Pfn.peek], so
   digesting materializes nothing), heap aggregates, domain and vCPU
   flags, per-CPU state, static locks and scheduler queues -- but
   summarises the timer heap *structurally* (size, order integrity,
   queued/active/recurring population): raw deadlines depend on the
   simulated time recovery finished at, which legitimately differs
   between a 22 ms full scan and a sub-ms incremental one. *)
let digest (hv : Hyper.Hypervisor.t) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let pfn = hv.Hyper.Hypervisor.pfn in
  for i = 0 to Hyper.Hypervisor.frames hv - 1 do
    let d = Hyper.Pfn.peek pfn i in
    pr "p%d:%b:%d:%s:%d\n" i d.Hyper.Pfn.validated d.Hyper.Pfn.use_count
      (Hyper.Pfn.page_type_name d.Hyper.Pfn.ptype)
      d.Hyper.Pfn.owner
  done;
  let h = hv.Hyper.Hypervisor.heap in
  pr "heap:%d:%d:%b\n" (Hyper.Heap.live_count h) (Hyper.Heap.bytes_live h)
    (Hyper.Heap.freelist_ok h);
  List.iter
    (fun (d : Hyper.Domain.t) ->
      pr "d%d:%b:%b:%b:%b:%d\n" d.Hyper.Domain.domid d.Hyper.Domain.alive
        d.Hyper.Domain.struct_ok d.Hyper.Domain.guest_failed
        d.Hyper.Domain.guest_sdc
        (List.length d.Hyper.Domain.owned_frames);
      Array.iter
        (fun (v : Hyper.Domain.vcpu) ->
          pr "v%d.%d:%s:%b:%d:%b:%b:%b:%b:%b\n" v.Hyper.Domain.domid
            v.Hyper.Domain.vid
            (Hyper.Domain.runstate_name v.Hyper.Domain.runstate)
            v.Hyper.Domain.is_current v.Hyper.Domain.curr_slot
            v.Hyper.Domain.fsgs_valid v.Hyper.Domain.retry_pending
            v.Hyper.Domain.syscall_retry_pending v.Hyper.Domain.lost_work
            (v.Hyper.Domain.in_hypercall <> None))
        d.Hyper.Domain.vcpus)
    (Hyper.Hypervisor.all_domains hv);
  Array.iter
    (fun (p : Hyper.Percpu.t) ->
      pr "c:%d:%d:%d:%d\n" p.Hyper.Percpu.local_irq_count
        p.Hyper.Percpu.in_hypercall_depth p.Hyper.Percpu.curr_domid
        p.Hyper.Percpu.curr_vcpuid)
    hv.Hyper.Hypervisor.percpu;
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      pr "x:%d:%b:%b\n" (Hashtbl.hash c.Hw.Cpu.state) c.Hw.Cpu.irq_enabled
        c.Hw.Cpu.in_hypervisor);
  Hyper.Spinlock.Segment.iter hv.Hyper.Hypervisor.static_segment (fun l ->
      pr "l:%b\n" (Hyper.Spinlock.is_held l));
  for cpu = 0 to Array.length hv.Hyper.Hypervisor.percpu - 1 do
    pr "q%d:%d:%b\n" cpu
      (List.length (Hyper.Sched.queued hv.Hyper.Hypervisor.sched ~cpu))
      (Hyper.Sched.current hv.Hyper.Hypervisor.sched ~cpu <> None)
  done;
  let tm = hv.Hyper.Hypervisor.timers in
  let queued = ref 0 and active = ref 0 in
  for i = 0 to Hyper.Timer_heap.size tm - 1 do
    let e = tm.Hyper.Timer_heap.arr.(i) in
    if e.Hyper.Timer_heap.queued then incr queued;
    if e.Hyper.Timer_heap.active then incr active
  done;
  pr "t:%d:%b:%d:%d:%d\n" (Hyper.Timer_heap.size tm)
    (Hyper.Timer_heap.structure_ok tm)
    !queued !active
    (List.length tm.Hyper.Timer_heap.recurring);
  Buffer.contents b
