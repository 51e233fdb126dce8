(** Resource-leak ledger.

    NiLiHype's endurance argument (Section III / VI of the paper) is that
    abandoning all in-flight hypervisor work leaks only a bounded, small
    amount of resources per recovery -- a few page frames, a few heap
    blocks -- so one instance can survive hundreds of successive
    recoveries. This module is the accounting for that claim: a cheap
    snapshot of every pool the hypervisor allocates from, taken at
    quiesce points (no request mid-flight), and a per-cycle diff that
    attributes leaks to each recovery.

    Two views are recorded, because they answer different questions:

    - {b raw counts} (live heap bytes/blocks, frames by type, bound
      event channels, in-use grant entries, queued timers, domains and
      vCPUs). These drift under a healthy workload -- [mmu_update]
      pins a fresh page-table frame, [memory_op] populates and
      decreases reservations, [set_timer_op] queues one-shots -- so
      their diff across a workload segment is expected to be non-zero
      and is reported for context only.
    - the {b orphan view}: resources reachable from no live owner --
      frames whose owner is dead or whose owner does not account for
      them, heap blocks belonging to dead domains, stale frame
      references, locks still held at quiesce, recurring timers gone
      missing. In a healthy system every one of these is zero at every
      quiesce point regardless of workload, so any growth is a genuine
      leak and is what budget assertions ("few pages per recovery")
      check. *)

type t = {
  (* Raw counts: workload-dependent, reported for context. *)
  heap_bytes : int;
  heap_blocks : int;
  frames_used : int; (* non-Free page frames *)
  frames_page_table : int;
  frames_writable : int;
  evtchn_bound : int;
  evtchn_pending : int;
  grant_in_use : int;
  grant_mapped : int;
  timers_queued : int;
  domains_alive : int;
  vcpus : int;
  (* Orphan view: zero at every healthy quiesce point. *)
  orphan_frames : int;
      (* used frames owned by no live domain, or unaccounted by their
         owner's frame list *)
  stale_frame_refs : int;
      (* entries in a live domain's frame list pointing at a frame that
         is free or owned by someone else *)
  orphan_heap_blocks : int; (* heap objects belonging to dead domains *)
  orphan_heap_bytes : int;
  static_locks_held : int;
  heap_locks_held : int;
  recurring_missing : int;
}

(* Per-domain lock allocations are named "d<domid>_<what>" (see
   [Domain.create], [Evtchn.create], [Grant.create]); recovering the
   owner from the name is what lets the ledger spot lock objects that
   outlived their domain. Per-CPU locks ("percpu<n>_sched") and static
   locks do not match and are never orphans. *)
let lock_owner_domid name =
  if String.length name >= 3 && name.[0] = 'd' then
    match String.index_opt name '_' with
    | Some i when i > 1 -> int_of_string_opt (String.sub name 1 (i - 1))
    | _ -> None
  else None

let capture (hv : Hypervisor.t) =
  let live = Hashtbl.create 8 in
  let owned = Hashtbl.create 256 in
  let domains_alive = ref 0 and vcpus = ref 0 in
  let evtchn_bound = ref 0 and evtchn_pending = ref 0 in
  let grant_in_use = ref 0 and grant_mapped = ref 0 in
  List.iter
    (fun (d : Domain.t) ->
      if d.Domain.alive then begin
        incr domains_alive;
        vcpus := !vcpus + Array.length d.Domain.vcpus;
        Hashtbl.replace live d.Domain.domid ();
        List.iter
          (fun f -> Hashtbl.replace owned (d.Domain.domid, f) ())
          d.Domain.owned_frames;
        Array.iter
          (fun (c : Evtchn.chan) ->
            if c.Evtchn.bound then incr evtchn_bound;
            if c.Evtchn.pending then incr evtchn_pending)
          d.Domain.evtchn.Evtchn.chans;
        Array.iter
          (fun (e : Grant.entry) ->
            if e.Grant.in_use then incr grant_in_use;
            if e.Grant.mapped_by <> -1 then incr grant_mapped)
          d.Domain.grants.Grant.entries
      end)
    (Hypervisor.all_domains hv);
  let is_live domid = Hashtbl.mem live domid in
  let frames_used = ref 0 in
  let frames_page_table = ref 0 and frames_writable = ref 0 in
  let orphan_frames = ref 0 in
  let pfn = hv.Hypervisor.pfn in
  Pfn.iter_live pfn (fun d ->
      if d.Pfn.ptype <> Pfn.Free then begin
        incr frames_used;
        (match d.Pfn.ptype with
        | Pfn.Page_table -> incr frames_page_table
        | Pfn.Writable -> incr frames_writable
        | Pfn.Free | Pfn.Segdesc | Pfn.Shared | Pfn.Xenheap -> ());
        if not (is_live d.Pfn.owner && Hashtbl.mem owned (d.Pfn.owner, d.Pfn.index))
        then incr orphan_frames
      end);
  let stale_frame_refs = ref 0 in
  Hashtbl.iter
    (fun (domid, f) () ->
      let d = Pfn.peek pfn f in
      if d.Pfn.ptype = Pfn.Free || d.Pfn.owner <> domid then
        incr stale_frame_refs)
    owned;
  let orphan_heap_blocks = ref 0 and orphan_heap_bytes = ref 0 in
  let heap_locks_held = ref 0 in
  Heap.iter_live hv.Hypervisor.heap (fun (obj : Heap.obj) ->
      let orphaned =
        match obj.Heap.kind with
        | Heap.Domain_data domid -> not (is_live domid)
        | Heap.Lock l -> (
          if Spinlock.is_held l then incr heap_locks_held;
          match lock_owner_domid l.Spinlock.name with
          | Some domid -> not (is_live domid)
          | None -> false)
        | Heap.Timer_data | Heap.Percpu_area _ | Heap.Generic -> false
      in
      if orphaned then begin
        incr orphan_heap_blocks;
        orphan_heap_bytes := !orphan_heap_bytes + obj.Heap.size
      end);
  let static_locks_held = ref 0 in
  Spinlock.Segment.iter hv.Hypervisor.static_segment (fun l ->
      if Spinlock.is_held l then incr static_locks_held);
  {
    heap_bytes = Heap.bytes_live hv.Hypervisor.heap;
    heap_blocks = Heap.live_count hv.Hypervisor.heap;
    frames_used = !frames_used;
    frames_page_table = !frames_page_table;
    frames_writable = !frames_writable;
    evtchn_bound = !evtchn_bound;
    evtchn_pending = !evtchn_pending;
    grant_in_use = !grant_in_use;
    grant_mapped = !grant_mapped;
    timers_queued = Timer_heap.size hv.Hypervisor.timers;
    domains_alive = !domains_alive;
    vcpus = !vcpus;
    orphan_frames = !orphan_frames;
    stale_frame_refs = !stale_frame_refs;
    orphan_heap_blocks = !orphan_heap_blocks;
    orphan_heap_bytes = !orphan_heap_bytes;
    static_locks_held = !static_locks_held;
    heap_locks_held = !heap_locks_held;
    recurring_missing =
      List.length (Timer_heap.missing_recurring hv.Hypervisor.timers);
  }

(* The ledger as (name, value) rows, in a fixed order shared by
   snapshots and diffs -- the vocabulary for JSON export, [Leak_delta]
   events and the per-resource leak counters. *)
let fields t =
  [
    ("heap_bytes", t.heap_bytes);
    ("heap_blocks", t.heap_blocks);
    ("frames_used", t.frames_used);
    ("frames_page_table", t.frames_page_table);
    ("frames_writable", t.frames_writable);
    ("evtchn_bound", t.evtchn_bound);
    ("evtchn_pending", t.evtchn_pending);
    ("grant_in_use", t.grant_in_use);
    ("grant_mapped", t.grant_mapped);
    ("timers_queued", t.timers_queued);
    ("domains_alive", t.domains_alive);
    ("vcpus", t.vcpus);
    ("orphan_frames", t.orphan_frames);
    ("stale_frame_refs", t.stale_frame_refs);
    ("orphan_heap_blocks", t.orphan_heap_blocks);
    ("orphan_heap_bytes", t.orphan_heap_bytes);
    ("static_locks_held", t.static_locks_held);
    ("heap_locks_held", t.heap_locks_held);
    ("recurring_missing", t.recurring_missing);
  ]

(* Field-wise [after - before]. The result is itself a [t], so the same
   accessors and printers apply to snapshots and to per-cycle deltas. *)
let diff ~before ~after =
  {
    heap_bytes = after.heap_bytes - before.heap_bytes;
    heap_blocks = after.heap_blocks - before.heap_blocks;
    frames_used = after.frames_used - before.frames_used;
    frames_page_table = after.frames_page_table - before.frames_page_table;
    frames_writable = after.frames_writable - before.frames_writable;
    evtchn_bound = after.evtchn_bound - before.evtchn_bound;
    evtchn_pending = after.evtchn_pending - before.evtchn_pending;
    grant_in_use = after.grant_in_use - before.grant_in_use;
    grant_mapped = after.grant_mapped - before.grant_mapped;
    timers_queued = after.timers_queued - before.timers_queued;
    domains_alive = after.domains_alive - before.domains_alive;
    vcpus = after.vcpus - before.vcpus;
    orphan_frames = after.orphan_frames - before.orphan_frames;
    stale_frame_refs = after.stale_frame_refs - before.stale_frame_refs;
    orphan_heap_blocks = after.orphan_heap_blocks - before.orphan_heap_blocks;
    orphan_heap_bytes = after.orphan_heap_bytes - before.orphan_heap_bytes;
    static_locks_held = after.static_locks_held - before.static_locks_held;
    heap_locks_held = after.heap_locks_held - before.heap_locks_held;
    recurring_missing = after.recurring_missing - before.recurring_missing;
  }

(* The orphan-view row names: the fixed per-resource vocabulary for
   leak counters ("endure.leak.<resource>") and [Leak_delta] events. *)
let leak_resource_names =
  [
    "orphan_frames";
    "stale_frame_refs";
    "orphan_heap_blocks";
    "orphan_heap_bytes";
    "static_locks_held";
    "heap_locks_held";
    "recurring_missing";
  ]

(* The orphan-view rows of a diff: the per-resource leak attribution.
   Non-empty means the interval leaked (or repaired, if negative). *)
let leak_fields d =
  List.filter
    (fun (name, v) -> v <> 0 && List.mem name leak_resource_names)
    (fields d)

let no_leak d = leak_fields d = []

(* The paper's budget unit: page frames leaked. Stale references are
   counted too -- a frame the owner lost track of is unusable either
   way. Negative contributions (a later recovery repairing an earlier
   leak) do not offset the budget check's intent, so clamp at 0. *)
let leaked_pages d = max 0 d.orphan_frames + max 0 d.stale_frame_refs

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf fmt "@ ";
      Format.fprintf fmt "%s=%d" name v)
    (fields t);
  Format.fprintf fmt "@]"

(* Compact diff rendering: only the fields that moved. *)
let pp_diff fmt d =
  let moved = List.filter (fun (_, v) -> v <> 0) (fields d) in
  if moved = [] then Format.pp_print_string fmt "(no change)"
  else begin
    Format.fprintf fmt "@[<hov 2>";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Format.fprintf fmt "@ ";
        Format.fprintf fmt "%s%+d" (name ^ ":") v)
      moved;
    Format.fprintf fmt "@]"
  end
