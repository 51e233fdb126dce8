(** Credit-scheduler model: per-CPU run queues plus the redundant
    current-vCPU records described in [Domain].

    [schedule] is assertion-rich, like Xen's: it checks the IRQ-nesting
    counter and the agreement between per-CPU and per-vCPU metadata, so
    inconsistencies left by an abandoned context switch surface as panics
    -- or as restoring the wrong register context, which manifests as
    guest failure. *)

type t = {
  runq : Domain.vcpu list array;
      (* cpu -> queued vcpus, newest first. A vCPU's [processor] pin is
         set at creation and never moves, so plain per-CPU lists replace
         the multi-binding hashtable the run queue used to be: same LIFO
         order ([Hashtbl.add]/[find_all] were newest-first too), no
         hashing and no [find_all] list allocation on the context-switch
         path. *)
  curr : Domain.vcpu option array; (* authoritative per-CPU current *)
  num_cpus : int;
}

let create ~num_cpus =
  { runq = Array.make num_cpus []; curr = Array.make num_cpus None; num_cpus }

(* Empty the run queues and current records, as [create] would. *)
let reset t =
  Array.fill t.runq 0 t.num_cpus [];
  Array.fill t.curr 0 t.num_cpus None

let enqueue t vcpu =
  vcpu.Domain.runstate <- Domain.Runnable;
  let cpu = vcpu.Domain.processor in
  let q = t.runq.(cpu) in
  if not (List.memq vcpu q) then t.runq.(cpu) <- vcpu :: q

let dequeue t ~cpu =
  match t.runq.(cpu) with
  | v :: rest ->
    t.runq.(cpu) <- rest;
    Some v
  | [] -> None

let queued t ~cpu = t.runq.(cpu)

let current t ~cpu = t.curr.(cpu)

(* Commit a context switch: updates the authoritative per-CPU record and
   both redundant per-vCPU copies. The fault injector can abandon the
   caller between these steps, leaving them disagreeing. *)
let set_current t ~cpu vcpu_opt =
  t.curr.(cpu) <- vcpu_opt

let vcpu_mark_current (v : Domain.vcpu) ~cpu =
  v.Domain.is_current <- true;
  v.Domain.curr_slot <- cpu;
  v.Domain.runstate <- Domain.Running

let vcpu_clear_current (v : Domain.vcpu) =
  v.Domain.is_current <- false;
  v.Domain.curr_slot <- -1

(* The consistency rules between per-CPU and per-vCPU records. *)
let consistent_on t ~cpu =
  match t.curr.(cpu) with
  | None -> true
  | Some v ->
    v.Domain.is_current && v.Domain.curr_slot = cpu
    && v.Domain.runstate = Domain.Running

let audit t all_vcpus =
  let ok = ref true in
  for cpu = 0 to t.num_cpus - 1 do
    if not (consistent_on t ~cpu) then ok := false
  done;
  List.iter
    (fun (v : Domain.vcpu) ->
      if v.Domain.is_current then begin
        match t.curr.(v.Domain.curr_slot) with
        | exception Invalid_argument _ -> ok := false
        | Some v' when v' == v -> ()
        | Some _ | None -> ok := false
      end;
      (* A runnable vCPU must be somewhere the scheduler can find it:
         either current or in its CPU's run queue. A vCPU dequeued by an
         abandoned context switch silently starves otherwise. *)
      if v.Domain.runstate = Domain.Runnable && not v.Domain.is_current then begin
        if not (List.memq v t.runq.(v.Domain.processor)) then ok := false
      end)
    all_vcpus;
  !ok

(* The "Ensure consistency within scheduling metadata" enhancement: the
   per-CPU structures are picked as the most reliable source and every
   per-vCPU record is rewritten from them. *)
let fix_from_percpu t all_vcpus =
  let fixes = ref 0 in
  List.iter
    (fun (v : Domain.vcpu) ->
      if v.Domain.is_current || v.Domain.curr_slot <> -1 then begin
        v.Domain.is_current <- false;
        v.Domain.curr_slot <- -1;
        incr fixes
      end;
      if v.Domain.runstate = Domain.Running then begin
        v.Domain.runstate <- Domain.Runnable;
        incr fixes
      end)
    all_vcpus;
  for cpu = 0 to t.num_cpus - 1 do
    match t.curr.(cpu) with
    | Some v ->
      vcpu_mark_current v ~cpu;
      (* Anything the per-CPU view says is current must not also sit in
         a run queue: remove stale queue entries for it. *)
      if List.memq v t.runq.(cpu) then begin
        t.runq.(cpu) <- List.filter (fun v' -> not (v' == v)) t.runq.(cpu);
        incr fixes
      end
    | None -> ()
  done;
  (* Runnable vCPUs that are in no run queue would starve: re-queue them. *)
  List.iter
    (fun (v : Domain.vcpu) ->
      if v.Domain.runstate = Domain.Runnable
         && not (List.memq v t.runq.(v.Domain.processor))
      then begin
        t.runq.(v.Domain.processor) <- v :: t.runq.(v.Domain.processor);
        incr fixes
      end)
    all_vcpus;
  !fixes

(* The scheduling routine proper: asserts on metadata inconsistencies
   (the failure mode the paper describes) and returns the vCPU whose
   register context will be restored -- if the metadata is wrong, that is
   the *wrong* context, which we surface via [`Wrong_context]. *)
let schedule t (percpu : Percpu.t) ~cpu =
  Percpu.assert_not_in_irq percpu;
  (match t.curr.(cpu) with
  | Some v ->
    if not v.Domain.is_current then
      Crash.assert_failed "schedule: cpu%d current vcpu d%dv%d lacks is_current"
        cpu v.Domain.domid v.Domain.vid;
    if not (v.Domain.curr_slot = cpu) then
      Crash.assert_failed "schedule: cpu%d current vcpu d%dv%d says slot %d" cpu
        v.Domain.domid v.Domain.vid v.Domain.curr_slot
  | None -> ());
  match dequeue t ~cpu with
  | None -> `Keep_current
  | Some next ->
    (match t.curr.(cpu) with
    | Some prev when prev == next -> `Keep_current
    | Some prev ->
      (* If the previous vCPU's redundant records disagree with the
         per-CPU view, Xen restores a stale register context. *)
      let inconsistent = not (consistent_on t ~cpu) in
      vcpu_clear_current prev;
      if prev.Domain.runstate = Domain.Running then
        prev.Domain.runstate <- Domain.Runnable;
      enqueue t prev;
      set_current t ~cpu (Some next);
      vcpu_mark_current next ~cpu;
      if inconsistent then `Wrong_context next else `Switched next
    | None ->
      set_current t ~cpu (Some next);
      vcpu_mark_current next ~cpu;
      `Switched next)
