(** Page-frame descriptor table.

    Each physical frame has a descriptor with a validation bit, a use
    counter and a type -- the two components the paper singles out as
    being left mutually inconsistent by a failure ("the validation bit
    and the page use counter... can cause the hypervisor to hang
    following recovery"). The consistency scan over this table is the
    dominant component of NiLiHype's 22 ms recovery latency (21 ms for
    8 GB).

    The table is also the only O(machine) structure in the simulator
    (64 Ki descriptors on the campaign configuration). Two whole-table
    walks run on every recovered run -- the recovery scan
    {!scan_and_fix} and the audit oracle {!count_inconsistent} -- so
    the layout is kept slim: a descriptor record holds only its six
    live fields, and both walks are plain [for] loops over the
    descriptor array.

    The table also carries the copy-on-write machinery behind
    {!Hypervisor.snapshot}, kept out of the descriptors:
    - the golden image lives in flat per-table arrays (use count and
      owner as [int array]s, type and validation bit packed in one byte
      per frame);
    - dirty tracking is a one-byte-per-frame map plus a growable stack
      of dirty frame indices, reached from each descriptor through its
      table's [tracker].
    {!snapshot}, {!restore}, {!scan_and_fix_dirty} and {!dirty_count}
    walk only that stack -- O(changed frames), not O(all frames).
    Mutators inside this module mark descriptors dirty themselves; the
    few external writers (the journal's undo arms, the fault injector's
    wild writes) call {!touch} explicitly. *)

type page_type =
  | Free
  | Writable
  | Page_table
  | Segdesc
  | Shared
  | Xenheap

type desc = {
  index : int;
  mutable validated : bool;
  mutable use_count : int;
  mutable ptype : page_type;
  mutable owner : int; (* domid, -1 = unowned *)
  tracker : tracker; (* back-pointer: mutators see only the desc *)
}

and tracker = {
  dirty_map : Bytes.t; (* one byte per frame: '\001' = on the stack *)
  mutable stack : int array; (* dirty frame indices in [0, top) *)
  mutable top : int;
}

type t = {
  descs : desc array;
  (* Golden image of the four mutable fields, refreshed by [snapshot]. *)
  g_use_count : int array;
  g_owner : int array;
  g_flags : Bytes.t; (* [ptype_code lsl 1 lor validated] per frame *)
  mutable free_head : int; (* cursor for simple free-frame allocation *)
  mutable g_free_head : int; (* free_head at the last snapshot *)
  tracker : tracker;
  mutable tracking_ok : bool;
      (* Is the dirty tracking itself trustworthy? The incremental
         recovery scan walks only the dirty stack, which is sound
         exactly when every write since the last consistent baseline
         went through {!touch}. A wild write into the tracking
         structures ({!invalidate_tracking}, e.g. the fault injector's
         [Pfn_tracker] target) or a recovery attempt that itself died
         mid-flight clears this; recovery then falls back to the full
         scan. Re-established by {!snapshot}/{!restore}/{!reset}, which
         install a fresh consistent baseline. *)
}

let page_type_name = function
  | Free -> "free"
  | Writable -> "writable"
  | Page_table -> "page_table"
  | Segdesc -> "segdesc"
  | Shared -> "shared"
  | Xenheap -> "xenheap"

let ptype_code = function
  | Free -> 0
  | Writable -> 1
  | Page_table -> 2
  | Segdesc -> 3
  | Shared -> 4
  | Xenheap -> 5

let ptype_of_code = [| Free; Writable; Page_table; Segdesc; Shared; Xenheap |]

(* The golden byte of a freshly created frame: [Free], not validated. *)
let fresh_flags = Char.chr (ptype_code Free lsl 1)

(* The dirty stack doubles on demand, never past the frame count (a frame
   is pushed at most once per drain). The initial size covers a campaign
   boot (~290 frames) plus a run's writes (~200) without growing. *)
let initial_stack = 1024

let create ~frames =
  let tracker =
    {
      dirty_map = Bytes.make frames '\000';
      stack = Array.make (min frames initial_stack) 0;
      top = 0;
    }
  in
  {
    descs =
      Array.init frames (fun index ->
          {
            index;
            validated = false;
            use_count = 0;
            ptype = Free;
            owner = -1;
            tracker;
          });
    g_use_count = Array.make frames 0;
    g_owner = Array.make frames (-1);
    g_flags = Bytes.make frames fresh_flags;
    free_head = 0;
    g_free_head = 0;
    tracker;
    tracking_ok = true;
  }

let frames t = Array.length t.descs
let get t i = t.descs.(i)

(* Mark a descriptor as modified since the last snapshot. First touch
   pushes its index on the dirty stack; subsequent touches are a byte
   load and a branch. *)
let touch (d : desc) =
  let tr = d.tracker in
  if Bytes.get tr.dirty_map d.index = '\000' then begin
    Bytes.set tr.dirty_map d.index '\001';
    if tr.top = Array.length tr.stack then begin
      let cap = min (Bytes.length tr.dirty_map) (2 * tr.top) in
      let stack = Array.make cap 0 in
      Array.blit tr.stack 0 stack 0 tr.top;
      tr.stack <- stack
    end;
    tr.stack.(tr.top) <- d.index;
    tr.top <- tr.top + 1
  end

(* Refresh the golden image: copy the live fields of every descriptor
   written since the previous snapshot and drain the dirty stack.
   O(changed frames). *)
let snapshot t =
  let tr = t.tracker in
  for k = 0 to tr.top - 1 do
    let i = tr.stack.(k) in
    let d = t.descs.(i) in
    t.g_use_count.(i) <- d.use_count;
    t.g_owner.(i) <- d.owner;
    Bytes.set t.g_flags i
      (Char.chr ((ptype_code d.ptype lsl 1) lor Bool.to_int d.validated));
    Bytes.set tr.dirty_map i '\000'
  done;
  tr.top <- 0;
  t.g_free_head <- t.free_head;
  t.tracking_ok <- true

(* Rewind every descriptor written since the last snapshot back to its
   golden image. O(changed frames); repeatable (the dirty stack is
   drained, later writes re-dirty). *)
let restore t =
  let tr = t.tracker in
  for k = 0 to tr.top - 1 do
    let i = tr.stack.(k) in
    let d = t.descs.(i) in
    let flags = Char.code (Bytes.get t.g_flags i) in
    d.validated <- flags land 1 = 1;
    d.use_count <- t.g_use_count.(i);
    d.ptype <- ptype_of_code.(flags lsr 1);
    d.owner <- t.g_owner.(i);
    Bytes.set tr.dirty_map i '\000'
  done;
  tr.top <- 0;
  t.free_head <- t.g_free_head;
  t.tracking_ok <- true

let dirty_count t = t.tracker.top
let tracking_usable t = t.tracking_ok
let invalidate_tracking t = t.tracking_ok <- false

(* Return every descriptor to its created state and rewind the allocation
   cursor, so a reused table hands out frames in exactly fresh-boot order.
   Must touch all descriptors: injected corruption can dirty any frame.
   The golden image is rewound too -- after a reset the table looks
   exactly as created, snapshot baseline included. *)
let reset t =
  let descs = t.descs in
  for i = 0 to Array.length descs - 1 do
    let d = descs.(i) in
    d.validated <- false;
    d.use_count <- 0;
    d.ptype <- Free;
    d.owner <- -1
  done;
  let n = frames t in
  Array.fill t.g_use_count 0 n 0;
  Array.fill t.g_owner 0 n (-1);
  Bytes.fill t.g_flags 0 n fresh_flags;
  Bytes.fill t.tracker.dirty_map 0 n '\000';
  t.tracker.top <- 0;
  t.free_head <- 0;
  t.g_free_head <- 0;
  t.tracking_ok <- true

(* Allocate a free frame for a domain. Raises if the table is exhausted
   (campaign configurations are sized so this cannot happen in a healthy
   run). *)
let alloc_frame t ~owner ~ptype =
  let n = frames t in
  let rec find tries i =
    if tries > n then Crash.panic "pfn: out of physical frames"
    else begin
      let d = t.descs.(i mod n) in
      if d.ptype = Free && d.use_count = 0 && not d.validated then d
      else find (tries + 1) (i + 1)
    end
  in
  let d = find 0 t.free_head in
  t.free_head <- (d.index + 1) mod n;
  touch d;
  d.ptype <- ptype;
  d.owner <- owner;
  d.use_count <- 1;
  d

(* get_page / put_page: the non-idempotent reference-count pair the paper
   discusses. Both assert like Xen does. *)
let get_page d =
  if not (d.ptype <> Free) then
    Crash.assert_failed "get_page on free frame %d" d.index;
  touch d;
  d.use_count <- d.use_count + 1

let put_page d =
  if d.use_count <= 0 then
    Crash.panic "pfn %d: use_count underflow (double put)" d.index;
  touch d;
  d.use_count <- d.use_count - 1;
  if d.use_count = 0 then begin
    d.validated <- false;
    d.ptype <- Free;
    d.owner <- -1
  end

(* validate / invalidate: setting the validation bit twice is a BUG() in
   Xen -- exactly the hazard a retried non-idempotent hypercall hits. *)
let validate d =
  if d.validated then
    Crash.panic "pfn %d: validating an already-validated frame" d.index;
  if not (d.use_count > 0) then
    Crash.assert_failed "validate with zero use_count on %d" d.index;
  touch d;
  d.validated <- true

let invalidate d =
  if not d.validated then
    Crash.panic "pfn %d: invalidating a non-validated frame" d.index;
  touch d;
  d.validated <- false

(* Inlined into the full walks, where a call per descriptor is a
   measurable share of the scan. *)
let[@inline] consistent d =
  match d.ptype with
  | Free -> d.use_count = 0 && not d.validated && d.owner = -1
  | Writable | Page_table | Segdesc | Shared | Xenheap ->
    d.use_count > 0 && d.use_count <= 1_000_000

(* Repair validation-bit / use-counter disagreement on one inconsistent
   descriptor. The repair is a pure function of the descriptor's own
   fields, so the scans below may visit descriptors in any order (full
   array sweep or dirty-stack walk) and converge on the same table. *)
let repair d =
  touch d;
  if d.ptype = Free then begin
    (* A frame marked free must carry no references. *)
    d.use_count <- 0;
    d.validated <- false;
    d.owner <- -1
  end
  else if d.use_count <= 0 then begin
    (* Typed page with no references: return it to the allocator. *)
    d.use_count <- 0;
    d.validated <- false;
    d.ptype <- Free;
    d.owner <- -1
  end
  else if d.use_count > 1_000_000 then begin
    (* Wild counter value: clamp and drop validation. *)
    d.use_count <- 1;
    d.validated <- false
  end

(* Detect and repair one descriptor; returns whether a repair was made. *)
let fix_desc d =
  if consistent d then false
  else begin
    repair d;
    true
  end

(* The recovery-time scan: walk every descriptor, detect validation-bit /
   use-counter disagreement and repair it. Returns the number of
   descriptors repaired. Latency is charged by the caller (proportional
   to [frames t]). *)
let scan_and_fix t =
  let descs = t.descs in
  let fixed = ref 0 in
  for i = 0 to Array.length descs - 1 do
    let d = descs.(i) in
    if not (consistent d) then begin
      repair d;
      incr fixed
    end
  done;
  !fixed

(* The incremental scan: repair only descriptors written since the last
   golden refresh. Equivalent to [scan_and_fix] whenever the tracking is
   intact ([tracking_usable]): the baseline was a consistent quiesce
   point, mutators and wild writes alike mark descriptors dirty, so any
   descriptor not on the stack still holds a consistent value. The dirty
   stack is deliberately NOT drained -- it still backs {!restore}, and
   every repaired descriptor is already on it ([touch] inside [fix_desc]
   is a no-op here). Latency is charged by the caller, proportional to
   [dirty_count t]. *)
let scan_and_fix_dirty t =
  let tr = t.tracker in
  let fixed = ref 0 in
  for k = 0 to tr.top - 1 do
    if fix_desc t.descs.(tr.stack.(k)) then incr fixed
  done;
  !fixed

let count_inconsistent t =
  let descs = t.descs in
  let bad = ref 0 in
  for i = 0 to Array.length descs - 1 do
    if not (consistent descs.(i)) then incr bad
  done;
  !bad

let free_frames t =
  Array.fold_left (fun acc d -> if d.ptype = Free then acc + 1 else acc) 0 t.descs
