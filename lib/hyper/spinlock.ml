(** Hypervisor spinlocks.

    Two populations, matching the paper's treatment:
    - locks allocated in the heap (per-domain, per-CPU scheduler and timer
      locks): ReHype already had a mechanism to release these, reused by
      NiLiHype;
    - locks in the static data segment ("static locks": console, domain
      list, global heap lock...): ReHype gets them re-initialised by the
      boot; NiLiHype gathers them into one linker segment and walks that
      segment to unlock them ("Unlock static locks" enhancement).

    In the simulator a lock left held by a discarded execution thread is
    permanent: the next acquisition spins forever, which the watchdog
    reports as a hang. *)

type location =
  | Static (* lives in the static data segment's lock section *)
  | Heap (* allocated from the Xen heap *)

type t = {
  name : string;
  location : location;
  mutable holder : int;
      (* CPU id of the holder, [free] when unheld: a plain int, so taking
         the lock allocates nothing *)
  mutable acquisitions : int;
}

let free = -1

let create ~name ~location = { name; location; holder = free; acquisitions = 0 }

let acquire t ~cpu =
  let c = t.holder in
  if c = free then begin
    t.holder <- cpu;
    t.acquisitions <- t.acquisitions + 1
  end
  else if c = cpu then
    (* Recursive acquisition deadlocks a non-recursive spinlock; Xen's
       debug build asserts on it. *)
    Crash.panic "spinlock %s: recursive acquisition on cpu%d" t.name cpu
  else
    (* The holder's execution thread no longer exists (it was abandoned
       by a failure), so this spin never ends. *)
    Crash.hang "spinlock %s: spinning (held by dead thread on cpu%d)" t.name c

let release t ~cpu =
  let c = t.holder in
  if c = cpu then t.holder <- free
  else if c = free then Crash.panic "spinlock %s: releasing an unheld lock" t.name
  else Crash.panic "spinlock %s: released by cpu%d, held by cpu%d" t.name cpu c

let is_held t = t.holder <> free

let force_unlock t = t.holder <- free

(* Back to created state (for machine reuse); the lock object itself is
   kept so existing registrations stay valid. *)
let reset t =
  t.holder <- free;
  t.acquisitions <- 0

(** The static-lock segment: the array the modified linker script
    produces, over which the recovering CPU iterates. *)
module Segment = struct
  type lock = t

  type t = { mutable locks : lock list }

  let create () = { locks = [] }

  let register t lock =
    if lock.location <> Static then
      invalid_arg "Spinlock.Segment.register: not a static lock";
    t.locks <- lock :: t.locks

  let iter t f = List.iter f t.locks

  (* The "Unlock static locks" enhancement: walk the segment and unlock
     any locked lock. Returns how many were released. *)
  let unlock_all t =
    let released = ref 0 in
    iter t (fun l ->
        if is_held l then begin
          force_unlock l;
          incr released
        end);
    !released

  let any_held t = List.exists is_held t.locks
  let count t = List.length t.locks

  (* Reset every registered lock in place without touching the
     registration list (re-registering would duplicate entries). *)
  let reset t = iter t reset
end
