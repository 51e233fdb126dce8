(** Page-frame descriptor table.

    Each physical frame has a descriptor with a validation bit, a use
    counter and a type -- the two components the paper singles out as
    being left mutually inconsistent by a failure ("the validation bit
    and the page use counter... can cause the hypervisor to hang
    following recovery"). The consistency scan over this table is the
    dominant component of NiLiHype's 22 ms recovery latency (21 ms for
    8 GB).

    The table is also the only O(machine) structure in the simulator
    (64 Ki frames on the campaign configuration), and almost none of
    those frames is ever written: a campaign boot allocates ~290, a
    200-tenant fleet boot ~4,900. So the table is sparse. Every frame
    that has not been written since the table was created or reset
    holds one shared, read-only descriptor, {!created}. {!get}
    materializes a frame's own record on first reach; the non-
    materializing read {!peek} is for read-only probes (the injector's
    target probe, the fleet's victim search, test digests). Every
    materialization is pushed on the table's live stack, so the
    whole-table walks ({!scan_and_fix}, {!count_inconsistent},
    {!free_frames}, {!iter_live}, {!reset}) visit only the frames that
    have a record of their own, not all 64 Ki slots: every other frame
    holds {!created}, which is consistent and free by construction. The recovery scan's simulated cost model
    stays O(frames) (charged by the caller); only its host cost follows
    the live frames. The full scan reads only the live stack, never the
    dirty tracking, so a wild write that bypassed {!touch} is still
    found: reaching a frame through {!get} is what gives it a record.

    The table also carries the copy-on-write machinery behind
    {!Hypervisor.rebaseline}, kept out of the descriptors:
    - the golden image lives in flat per-table arrays (use count and
      owner as [int array]s, type and validation bit packed in one byte
      per frame);
    - dirty tracking is a one-byte-per-frame map plus a growable stack
      of dirty frame indices, reached from each descriptor through its
      table's [tracker];
    - the frames materialized since the last golden refresh ("born") are
      the suffix of the live stack above the [golden_live] cursor. They
      are kept apart from the dirty stack, so materializing a frame on a
      read does not count as a write: {!dirty_count} and the incremental
      scan's simulated latency do not move.
    {!snapshot}, {!restore}, {!scan_and_fix_dirty} and {!dirty_count}
    walk only the dirty stack and the born suffix -- O(changed frames),
    not O(all frames). {!restore} returns born frames to the shared
    descriptor and {!reset} returns every live frame to it, so a run's
    allocations do not depend on which runs the table served before.
    Mutators inside this module mark descriptors dirty themselves; the
    few external writers (the journal's undo arms, the fault injector's
    wild writes) call {!touch} explicitly. A descriptor obtained before
    a {!restore} or {!reset} is stale after it: fetch it again with
    {!get}. *)

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
  dirty : stack;
}

(* A growable stack of frame indices in [items.(0 .. top-1)]. *)
and stack = {
  mutable items : int array;
  mutable top : int;
}

type t = {
  descs : desc array; (* [created] for every frame never written *)
  (* Golden image of the four mutable fields, refreshed by [snapshot]. *)
  g_use_count : int array;
  g_owner : int array;
  g_flags : Bytes.t; (* [ptype_code lsl 1 lor validated] per frame *)
  mutable free_head : int; (* cursor for simple free-frame allocation *)
  mutable g_free_head : int; (* free_head at the last snapshot *)
  tracker : tracker;
  live : stack; (* every materialized frame, each once, in birth order *)
  mutable golden_live : int;
      (* [live.top] at the last snapshot: the born frames are
         [live.items.(golden_live .. top-1)] *)
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

(* The created-state descriptor every never-written frame of every table
   shares. Read-only: its index is -1 and its tracker is empty, so a
   [touch] through it fails its bounds check instead of corrupting the
   frames that share it. One value for all tables, so filling a table
   with it never stores a young pointer into the (major-heap) descriptor
   array. *)
let created =
  {
    index = -1;
    validated = false;
    use_count = 0;
    ptype = Free;
    owner = -1;
    tracker = { dirty_map = Bytes.empty; dirty = { items = [||]; top = 0 } };
  }

(* The index stacks double on demand, never past the frame count (a frame
   is pushed at most once per drain). The initial size covers a campaign
   boot (~290 frames) plus a run's writes and births (~200) without
   growing. *)
let initial_stack = 1024

let new_stack ~frames = { items = Array.make (min frames initial_stack) 0; top = 0 }

let push s ~frames i =
  if s.top = Array.length s.items then begin
    let items = Array.make (min frames (2 * s.top)) 0 in
    Array.blit s.items 0 items 0 s.top;
    s.items <- items
  end;
  s.items.(s.top) <- i;
  s.top <- s.top + 1

let create ~frames =
  {
    descs = Array.make frames created;
    g_use_count = Array.make frames 0;
    g_owner = Array.make frames (-1);
    g_flags = Bytes.make frames fresh_flags;
    free_head = 0;
    g_free_head = 0;
    tracker = { dirty_map = Bytes.make frames '\000'; dirty = new_stack ~frames };
    live = new_stack ~frames;
    golden_live = 0;
    tracking_ok = true;
  }

let frames t = Array.length t.descs

(* Give frame [i] its own created-state record and log its birth. *)
let[@inline never] materialize t i =
  let d =
    { index = i; validated = false; use_count = 0; ptype = Free; owner = -1; tracker = t.tracker }
  in
  t.descs.(i) <- d;
  push t.live ~frames:(frames t) i;
  d

(* The descriptor of frame [i], materialized on first reach: the result
   may be written (through {!touch} or the mutators below). *)
let get t i =
  let d = t.descs.(i) in
  if d != created then d else materialize t i

(* Frame [i]'s current field values without materializing it: {!created}
   for a frame never written. Never write through the result. *)
let peek t i = t.descs.(i)

(* Mark a descriptor as modified since the last snapshot. First touch
   pushes its index on the dirty stack; subsequent touches are a byte
   load and a branch. *)
let touch (d : desc) =
  let tr = d.tracker in
  if Bytes.get tr.dirty_map d.index = '\000' then begin
    Bytes.set tr.dirty_map d.index '\001';
    push tr.dirty ~frames:(Bytes.length tr.dirty_map) d.index
  end

(* Refresh the golden image: copy the live fields of every descriptor
   written since the previous snapshot and drain the dirty stack; frames
   born since then become part of the baseline. O(changed frames). *)
let snapshot t =
  let dirty = t.tracker.dirty in
  for k = 0 to dirty.top - 1 do
    let i = dirty.items.(k) in
    let d = t.descs.(i) in
    t.g_use_count.(i) <- d.use_count;
    t.g_owner.(i) <- d.owner;
    Bytes.set t.g_flags i
      (Char.chr ((ptype_code d.ptype lsl 1) lor Bool.to_int d.validated));
    Bytes.set t.tracker.dirty_map i '\000'
  done;
  dirty.top <- 0;
  t.golden_live <- t.live.top;
  t.g_free_head <- t.free_head;
  t.tracking_ok <- true

(* Rewind every descriptor written since the last snapshot back to its
   golden image, then return the frames born since then to the shared
   descriptor (a frame that was still shared at the snapshot has the
   created state as its golden image) and truncate the live stack back
   to the snapshot's. O(changed frames); repeatable (later writes
   re-dirty, later births push again). *)
let restore t =
  let dirty = t.tracker.dirty in
  for k = 0 to dirty.top - 1 do
    let i = dirty.items.(k) in
    let d = t.descs.(i) in
    let flags = Char.code (Bytes.get t.g_flags i) in
    d.validated <- flags land 1 = 1;
    d.use_count <- t.g_use_count.(i);
    d.ptype <- ptype_of_code.(flags lsr 1);
    d.owner <- t.g_owner.(i);
    Bytes.set t.tracker.dirty_map i '\000'
  done;
  dirty.top <- 0;
  let live = t.live in
  for k = t.golden_live to live.top - 1 do
    t.descs.(live.items.(k)) <- created
  done;
  live.top <- t.golden_live;
  t.free_head <- t.g_free_head;
  t.tracking_ok <- true

let dirty_count t = t.tracker.dirty.top
let born_count t = t.live.top - t.golden_live
let live_count t = t.live.top
let tracking_usable t = t.tracking_ok
let invalidate_tracking t = t.tracking_ok <- false

(* Return every frame to the shared created-state descriptor and rewind
   the allocation cursor, so a reused table hands out frames in exactly
   fresh-boot order. The golden image and the dirty map are rewound
   too -- after a reset the table looks exactly as created, snapshot
   baseline included. Walking the live stack covers every index that can
   differ from created: only a materialized frame can be dirtied, so
   only a live frame can hold a golden entry or a dirty byte of its
   own. *)
let reset t =
  let live = t.live in
  for k = 0 to live.top - 1 do
    let i = live.items.(k) in
    t.descs.(i) <- created;
    t.g_use_count.(i) <- 0;
    t.g_owner.(i) <- -1;
    Bytes.set t.g_flags i fresh_flags;
    Bytes.set t.tracker.dirty_map i '\000'
  done;
  live.top <- 0;
  t.golden_live <- 0;
  t.tracker.dirty.top <- 0;
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
      if d.ptype = Free && d.use_count = 0 && not d.validated then i mod n
      else find (tries + 1) (i + 1)
    end
  in
  let i = find 0 t.free_head in
  let d = get t i in
  t.free_head <- (i + 1) mod n;
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

(* The recovery-time scan: walk every frame that has a record, detect
   validation-bit / use-counter disagreement and repair it. Returns the
   number of descriptors repaired. Latency is charged by the caller
   (proportional to [frames t]). The frames off the live stack all hold
   the shared descriptor, consistent by construction. Unlike
   [scan_and_fix_dirty] this trusts no dirty tracking, so it also finds
   writes that bypassed {!touch}. *)
let scan_and_fix t =
  let live = t.live and descs = t.descs in
  let fixed = ref 0 in
  for k = 0 to live.top - 1 do
    let d = descs.(live.items.(k)) in
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
  let dirty = t.tracker.dirty in
  let fixed = ref 0 in
  for k = 0 to dirty.top - 1 do
    if fix_desc t.descs.(dirty.items.(k)) then incr fixed
  done;
  !fixed

let count_inconsistent t =
  let live = t.live and descs = t.descs in
  let bad = ref 0 in
  for k = 0 to live.top - 1 do
    if not (consistent descs.(live.items.(k))) then incr bad
  done;
  !bad

(* Every frame off the live stack is free. *)
let free_frames t =
  let live = t.live and descs = t.descs in
  let used = ref 0 in
  for k = 0 to live.top - 1 do
    if descs.(live.items.(k)).ptype <> Free then incr used
  done;
  frames t - !used

(* Apply [f] to every materialized descriptor, in birth order. The frames
   it skips all read as {!created}. Never write through the argument. *)
let iter_live t f =
  let live = t.live and descs = t.descs in
  for k = 0 to live.top - 1 do
    f descs.(live.items.(k))
  done
