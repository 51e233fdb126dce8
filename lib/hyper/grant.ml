(** Grant tables: page-sharing between domains, the mechanism behind
    paravirtual block and network I/O. Grant map/unmap operations take
    and drop page references -- non-idempotent, hence covered by the undo
    journal. *)

type entry = {
  slot : int;
  mutable in_use : bool;
  mutable frame : int; (* granted frame index, -1 if none *)
  mutable mapped_by : int; (* domid of the mapper, -1 if unmapped *)
}

type table = {
  entries : entry array;
  lock : Spinlock.t; (* heap-resident per-domain lock *)
}

let create heap ~slots domid =
  let lock =
    Spinlock.create ~name:(Printf.sprintf "d%d_grant" domid) ~location:Spinlock.Heap
  in
  ignore (Heap.alloc heap (Heap.Lock lock));
  {
    entries =
      Array.init slots (fun slot ->
          { slot; in_use = false; frame = -1; mapped_by = -1 });
    lock;
  }

let grant t ~slot ~frame =
  let e = t.entries.(slot) in
  e.in_use <- true;
  e.frame <- frame;
  e.mapped_by <- -1

let find_free t =
  let n = Array.length t.entries in
  let rec go i =
    if i >= n then Crash.panic "grant table full"
    else if not t.entries.(i).in_use then t.entries.(i)
    else go (i + 1)
  in
  go 0

let map t ~slot ~by =
  let e = t.entries.(slot) in
  if not e.in_use then Crash.assert_failed "grant map of unused slot %d" slot;
  if not (e.mapped_by = -1) then
    Crash.assert_failed "grant slot %d already mapped" slot;
  e.mapped_by <- by

let unmap t ~slot =
  let e = t.entries.(slot) in
  if e.mapped_by = -1 then Crash.panic "grant slot %d: unmap when not mapped" slot;
  e.mapped_by <- -1

let release t ~slot =
  let e = t.entries.(slot) in
  e.in_use <- false;
  e.frame <- -1;
  e.mapped_by <- -1
