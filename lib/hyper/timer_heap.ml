(** Software timer heap.

    Xen keeps pending timer events in a binary heap examined from the
    APIC timer interrupt; the handler reprograms the APIC to fire at the
    deadline of the top node. Recurring events (system-time
    synchronisation, scheduler ticks, the watchdog's soft tick) are
    re-inserted by their handlers -- so a failure between pop and
    re-insert silently loses them, the damage the "Reactivate recurring
    timer events" enhancement repairs.

    Like {!Pfn} and {!Heap}, the timer heap carries copy-on-write golden
    state behind {!Hypervisor.snapshot}: each event holds a golden copy
    of its mutable fields plus a dirty bit, and the heap keeps a golden
    copy of its occupied prefix (event refs, order included) in a
    persistent side array. {!snapshot} and {!restore} walk the dirty
    list plus the occupied prefix -- O(changed events + queue length),
    never O(allocated capacity) -- and allocate nothing in steady state.
    External writers (the fault injector's deadline scribbles) must call
    {!touch} first. *)

type action =
  | Time_sync (* system time calibration, global *)
  | Sched_tick of int (* credit scheduler accounting on a CPU *)
  | Watchdog_tick (* software counter the NMI handler checks *)
  | Vcpu_timer of int * int (* (domid, vcpuid) singleshot timer *)
  | Generic_oneshot

let action_name = function
  | Time_sync -> "time_sync"
  | Sched_tick cpu -> Printf.sprintf "sched_tick(cpu%d)" cpu
  | Watchdog_tick -> "watchdog_tick"
  | Vcpu_timer (domid, vid) -> Printf.sprintf "vcpu_timer(d%dv%d)" domid vid
  | Generic_oneshot -> "oneshot"

type event = {
  id : int;
  mutable deadline : Sim.Time.ns;
  period : Sim.Time.ns option; (* [Some p] for recurring events *)
  action : action;
  mutable queued : bool;
  mutable active : bool; (* an inactive recurring event is "lost" *)
  (* Golden image of the mutable fields, refreshed by [snapshot]. *)
  mutable g_deadline : Sim.Time.ns;
  mutable g_queued : bool;
  mutable g_active : bool;
  mutable dirty : bool; (* on the heap's dirty list? *)
  tracker : tracker; (* back-pointer: mutators see only the event *)
}

and tracker = { mutable dirty_list : event list }

type t = {
  mutable arr : event array;
  mutable size : int;
  mutable next_id : int;
  mutable structure_ok : bool; (* heap-order integrity *)
  mutable recurring : event list; (* registry of all recurring events *)
  tracker : tracker;
  (* Golden copy of the occupied prefix (refs in heap order) plus the
     structural scalars, refreshed by [snapshot]. *)
  mutable g_arr : event array;
  mutable g_size : int;
  mutable g_next_id : int;
  mutable g_structure_ok : bool;
  mutable g_recurring : event list;
}

(* The backing arrays are sized eagerly: campaign workers reuse one heap
   across thousands of runs ([reset] keeps the arrays), and growing them
   lazily would make the first run on each worker allocate more than the
   rest -- breaking the jobs-invariance of the allocation profiler's
   phase counters. 64 slots cover every configuration the campaigns use
   (a few recurring events per CPU plus singleshot vCPU timers). *)
let dummy_tracker = { dirty_list = [] }

let dummy_event =
  {
    id = -1;
    deadline = 0;
    period = None;
    action = Generic_oneshot;
    queued = false;
    active = false;
    g_deadline = 0;
    g_queued = false;
    g_active = false;
    dirty = false;
    tracker = dummy_tracker;
  }

let create () =
  {
    arr = Array.make 64 dummy_event;
    size = 0;
    next_id = 0;
    structure_ok = true;
    recurring = [];
    tracker = { dirty_list = [] };
    g_arr = Array.make 64 dummy_event;
    g_size = 0;
    g_next_id = 0;
    g_structure_ok = true;
    g_recurring = [];
  }

let size t = t.size

(* Mark an event as modified since the last snapshot. Exported: the
   fault injector scribbles on deadlines directly and must call this
   first, like {!Pfn.touch}. *)
let touch e =
  if not e.dirty then begin
    e.dirty <- true;
    e.tracker.dirty_list <- e :: e.tracker.dirty_list
  end

let dirty_count t = List.length t.tracker.dirty_list

(* Refresh the golden image: per-event fields for everything touched
   since the previous snapshot, plus the occupied prefix and structural
   scalars. O(changed events + queue length); allocates only if the
   queue outgrew the golden array's capacity. *)
let snapshot t =
  List.iter
    (fun e ->
      e.g_deadline <- e.deadline;
      e.g_queued <- e.queued;
      e.g_active <- e.active;
      e.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  if Array.length t.g_arr < t.size then
    t.g_arr <- Array.make (Array.length t.arr) dummy_event;
  Array.blit t.arr 0 t.g_arr 0 t.size;
  t.g_size <- t.size;
  t.g_next_id <- t.next_id;
  t.g_structure_ok <- t.structure_ok;
  t.g_recurring <- t.recurring

(* Rewind to the last snapshot: per-event fields for everything touched
   since, then the queue prefix and scalars. Repeatable (the dirty list
   is drained; later writes re-dirty). *)
let restore t =
  List.iter
    (fun e ->
      e.deadline <- e.g_deadline;
      e.queued <- e.g_queued;
      e.active <- e.g_active;
      e.dirty <- false)
    t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  (* [arr] never shrinks, so its capacity covers any historical size. *)
  Array.blit t.g_arr 0 t.arr 0 t.g_size;
  t.size <- t.g_size;
  t.next_id <- t.g_next_id;
  t.structure_ok <- t.g_structure_ok;
  t.recurring <- t.g_recurring

(* Empty the heap and drop the recurring registry, as [create] would; the
   backing arrays keep their capacity (entries beyond [size] are never
   read), so reuse allocates nothing. The golden state is reset too --
   after a reset the heap looks exactly as created, snapshot baseline
   included. *)
let reset t =
  t.size <- 0;
  t.next_id <- 0;
  t.structure_ok <- true;
  t.recurring <- [];
  List.iter (fun e -> e.dirty <- false) t.tracker.dirty_list;
  t.tracker.dirty_list <- [];
  t.g_size <- 0;
  t.g_next_id <- 0;
  t.g_structure_ok <- true;
  t.g_recurring <- []

let swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.arr.(i).deadline < t.arr.(parent).deadline then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.size && t.arr.(l).deadline < t.arr.(!m).deadline then m := l;
  if r < t.size && t.arr.(r).deadline < t.arr.(!m).deadline then m := r;
  if !m <> i then begin
    swap t i !m;
    sift_down t !m
  end

let push_event t event =
  if not t.structure_ok then
    Crash.panic "timer heap: structure corrupted (insert walks bad links)";
  let cap = Array.length t.arr in
  if t.size = cap then begin
    let narr = Array.make (max 16 (cap * 2)) event in
    Array.blit t.arr 0 narr 0 t.size;
    t.arr <- narr
  end;
  touch event;
  t.arr.(t.size) <- event;
  event.queued <- true;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let add t ~deadline ?period action =
  let event =
    {
      id = t.next_id;
      deadline;
      period;
      action;
      queued = false;
      active = true;
      g_deadline = deadline;
      g_queued = false;
      g_active = false; (* did not exist at the last snapshot *)
      dirty = false;
      tracker = t.tracker;
    }
  in
  touch event;
  t.next_id <- t.next_id + 1;
  if period <> None then t.recurring <- event :: t.recurring;
  push_event t event;
  event

let peek t = if t.size = 0 then None else Some t.arr.(0)

let pop t =
  if not t.structure_ok then
    Crash.panic "timer heap: structure corrupted (pop finds bad ordering)";
  if t.size = 0 then None
  else begin
    let top = t.arr.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.arr.(0) <- t.arr.(t.size);
      sift_down t 0
    end;
    touch top;
    top.queued <- false;
    Some top
  end

(* Pop the next event if its deadline has passed. The caller runs the
   handler and (for recurring events) must re-insert via [requeue] --
   the re-insert gap is the vulnerability window. *)
let pop_due t ~now = if t.size > 0 && t.arr.(0).deadline <= now then pop t else None

let requeue t event ~now =
  match event.period with
  | None -> ()
  | Some p ->
    touch event;
    event.deadline <- now + p;
    event.active <- true;
    push_event t event

let next_deadline t = if t.size = 0 then None else Some t.arr.(0).deadline

(* Recovery: find recurring events that are neither queued nor about to
   be re-inserted (their handler was abandoned mid-flight) and re-insert
   them. Returns the number reactivated. *)
let reactivate_recurring t ~now =
  let reactivated = ref 0 in
  List.iter
    (fun e ->
      if not e.queued then begin
        touch e;
        (match e.period with
        | Some p -> e.deadline <- now + p
        | None -> ());
        e.active <- true;
        push_event t e;
        incr reactivated
      end)
    t.recurring;
  !reactivated

let missing_recurring t = List.filter (fun e -> not e.queued) t.recurring

let corrupt_structure t = t.structure_ok <- false
let structure_ok t = t.structure_ok

(* ReHype: the reboot constructs a fresh heap and re-registers the
   standard recurring events; domain singleshot timers are re-created
   from the preserved domain state. *)
let rebuild_for_reboot t ~now =
  t.structure_ok <- true;
  t.size <- 0;
  List.iter
    (fun e ->
      touch e;
      e.queued <- false;
      (match e.period with Some p -> e.deadline <- now + p | None -> ());
      e.active <- true;
      push_event t e)
    t.recurring

let heap_property_holds t =
  if not t.structure_ok then false
  else begin
    let ok = ref true in
    for i = 1 to t.size - 1 do
      let parent = (i - 1) / 2 in
      if t.arr.(parent).deadline > t.arr.(i).deadline then ok := false
    done;
    !ok
  end
