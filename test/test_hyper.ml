(* Tests for the simulated hypervisor: page frames, heap, locks, timer
   heap, scheduler, journal, hypercalls, activities, audit. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let crashes f =
  match f () with
  | _ -> false
  | exception Hyper.Crash.Hypervisor_crash _ -> true

(* The message of the panic [f] raises, if it raises one. *)
let panic_text f =
  match f () with
  | _ -> None
  | exception Hyper.Crash.Hypervisor_crash (Hyper.Crash.Panic s) -> Some s

let check_panic what expected f =
  Alcotest.(check (option string)) what (Some expected) (panic_text f)

(* Minor words [f] allocates; [f] is built before the bracket opens. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let boot ?(setup = Hyper.Hypervisor.Three_appvm) ?(config = Hyper.Config.nilihype) () =
  let clock = Sim.Clock.create () in
  Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config ~config ~setup clock

(* ------------------------- Pfn -------------------------------------- *)

let test_pfn_alloc_free_cycle () =
  let t = Hyper.Pfn.create ~frames:16 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  checki "one ref" 1 d.Hyper.Pfn.use_count;
  Hyper.Pfn.put_page d;
  checkb "freed" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Free);
  checki "free count" 16 (Hyper.Pfn.free_frames t)

let test_pfn_get_put_balance () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Pfn.get_page d;
  Hyper.Pfn.get_page d;
  checki "3 refs" 3 d.Hyper.Pfn.use_count;
  Hyper.Pfn.put_page d;
  Hyper.Pfn.put_page d;
  checki "1 ref" 1 d.Hyper.Pfn.use_count

let test_pfn_double_validate_panics () =
  (* The non-idempotent retry hazard of Section IV. *)
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Pfn.validate d;
  checkb "second validate panics" true (crashes (fun () -> Hyper.Pfn.validate d))

let test_pfn_double_invalidate_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Pfn.validate d;
  Hyper.Pfn.invalidate d;
  checkb "double invalidate panics" true
    (crashes (fun () -> Hyper.Pfn.invalidate d))

let test_pfn_underflow_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Pfn.put_page d;
  checkb "double put panics" true (crashes (fun () -> Hyper.Pfn.put_page d))

let test_pfn_get_on_free_panics () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.get t 0 in
  checkb "get_page on free frame" true (crashes (fun () -> Hyper.Pfn.get_page d))

(* The converted assertions keep their conditions and exact messages. *)
let test_pfn_assert_texts () =
  let t = Hyper.Pfn.create ~frames:4 in
  check_panic "get_page on a free frame" "ASSERT: get_page on free frame 2"
    (fun () -> Hyper.Pfn.get_page (Hyper.Pfn.get t 2));
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  d.Hyper.Pfn.use_count <- 0;
  check_panic "validate with zero use count"
    (Printf.sprintf "ASSERT: validate with zero use_count on %d" d.Hyper.Pfn.index)
    (fun () -> Hyper.Pfn.validate d)

(* A passing assertion formats nothing: get_page on a live frame
   allocates no minor words (after the first touch marks it dirty). *)
let test_pfn_get_page_no_alloc () =
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Pfn.get_page d;
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          Hyper.Pfn.get_page d
        done)
  in
  Alcotest.(check (float 0.0)) "minor words over 10k get_page" 0.0 words

let test_pfn_scan_fixes_validated_zero_refs () =
  (* The validation-bit / use-counter disagreement the recovery scan
     repairs (Section VII-B). *)
  let t = Hyper.Pfn.create ~frames:8 in
  let d = Hyper.Pfn.get t 3 in
  d.Hyper.Pfn.validated <- true; (* corrupt: validated but Free, 0 refs *)
  checki "one inconsistent" 1 (Hyper.Pfn.count_inconsistent t);
  let fixed = Hyper.Pfn.scan_and_fix t in
  checki "fixed one" 1 fixed;
  checki "consistent after scan" 0 (Hyper.Pfn.count_inconsistent t)

let test_pfn_scan_fixes_orphan_typed_page () =
  let t = Hyper.Pfn.create ~frames:8 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  d.Hyper.Pfn.use_count <- 0; (* corrupt: typed page with no refs *)
  ignore (Hyper.Pfn.scan_and_fix t);
  checkb "returned to free" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Free);
  checki "consistent" 0 (Hyper.Pfn.count_inconsistent t)

let test_pfn_scan_idempotent () =
  let t = Hyper.Pfn.create ~frames:8 in
  (Hyper.Pfn.get t 2).Hyper.Pfn.validated <- true;
  ignore (Hyper.Pfn.scan_and_fix t);
  checki "second scan fixes nothing" 0 (Hyper.Pfn.scan_and_fix t)

let test_pfn_untracked_write_needs_full_scan () =
  (* A write that bypasses [touch] never reaches the dirty stack, so only
     the full walks see it -- why the audit oracle and the recovery
     fallback stay full scans. *)
  let t = Hyper.Pfn.create ~frames:64 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Pfn.snapshot t;
  d.Hyper.Pfn.use_count <- 0;
  checki "not dirty" 0 (Hyper.Pfn.dirty_count t);
  checki "audit counts it" 1 (Hyper.Pfn.count_inconsistent t);
  checki "dirty scan misses it" 0 (Hyper.Pfn.scan_and_fix_dirty t);
  checki "still inconsistent" 1 (Hyper.Pfn.count_inconsistent t);
  checki "full scan repairs it" 1 (Hyper.Pfn.scan_and_fix t);
  checki "consistent" 0 (Hyper.Pfn.count_inconsistent t);
  checkb "returned to free" true (d.Hyper.Pfn.ptype = Hyper.Pfn.Free)

(* Write a field pattern covering every page type, both validation
   states, owner -1 and wild counts ([max_int], -5) through [touch]. *)
let pfn_scribble t i ~salt =
  let types = Hyper.Pfn.[| Free; Writable; Page_table; Segdesc; Shared; Xenheap |] in
  let counts = [| 0; 1; 7; max_int; -5; 1_000_001 |] in
  let owners = [| -1; 0; 3; 200 |] in
  let d = Hyper.Pfn.get t i in
  Hyper.Pfn.touch d;
  d.Hyper.Pfn.validated <- (i + salt) land 1 = 0;
  d.Hyper.Pfn.use_count <- counts.((i + salt) mod 6);
  d.Hyper.Pfn.ptype <- types.(((i / 2) + salt) mod 6);
  d.Hyper.Pfn.owner <- owners.(((i / 3) + salt) mod 4)

let pfn_fields t =
  Array.init (Hyper.Pfn.frames t) (fun i ->
      let d = Hyper.Pfn.peek t i in
      Hyper.Pfn.(d.validated, d.use_count, d.ptype, d.owner))

(* Index of the first frame whose fields differ, or -1. *)
let first_mismatch a b =
  let rec go i =
    if i >= Array.length a then -1 else if a.(i) <> b.(i) then i else go (i + 1)
  in
  go 0

let test_pfn_restore_exact_past_stack_capacity () =
  let t = Hyper.Pfn.create ~frames:2048 in
  (* Scattered orders; 7 and 5 are coprime with 2048, so no repeats. *)
  for k = 0 to 999 do
    pfn_scribble t (k * 7 mod 2048) ~salt:0
  done;
  Hyper.Pfn.snapshot t;
  let golden = pfn_fields t in
  (* Well past the dirty stack's initial capacity: it must grow. *)
  for k = 0 to 1499 do
    pfn_scribble t (k * 5 mod 2048) ~salt:1
  done;
  checki "all dirtied frames tracked" 1500 (Hyper.Pfn.dirty_count t);
  Hyper.Pfn.restore t;
  checki "stack drained" 0 (Hyper.Pfn.dirty_count t);
  checki "first frame differing from its snapshot" (-1)
    (first_mismatch golden (pfn_fields t))

let test_pfn_reset_rewinds_baseline () =
  let t = Hyper.Pfn.create ~frames:512 in
  let fresh = pfn_fields t in
  for i = 0 to 299 do
    pfn_scribble t i ~salt:0
  done;
  Hyper.Pfn.snapshot t;
  for i = 100 to 399 do
    pfn_scribble t i ~salt:1
  done;
  Hyper.Pfn.reset t;
  checki "reset drains dirty" 0 (Hyper.Pfn.dirty_count t);
  checki "reset: first frame differing from create" (-1)
    (first_mismatch fresh (pfn_fields t));
  (* The golden image was rewound too: writes after the reset roll back
     to the created state, not to the pre-reset snapshot. *)
  for i = 0 to 399 do
    pfn_scribble t i ~salt:2
  done;
  Hyper.Pfn.restore t;
  checki "restore: first frame differing from create" (-1)
    (first_mismatch fresh (pfn_fields t));
  checki "first allocation" 0
    (Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable).Hyper.Pfn.index

(* ------------------------- Sparse pfn table -------------------------- *)

let created_state (d : Hyper.Pfn.desc) =
  Hyper.Pfn.(d.validated, d.use_count, d.ptype, d.owner) = (false, 0, Hyper.Pfn.Free, -1)

let count_shared pfn =
  let n = ref 0 in
  for i = 0 to Hyper.Pfn.frames pfn - 1 do
    if Hyper.Pfn.peek pfn i == Hyper.Pfn.created then incr n
  done;
  !n

let test_pfn_shared_survives_corruption () =
  (* A campaign of data faults, then every pfn wild-write target 200
     times on one machine. Most probes miss the ~290 in-use frames, so
     the writes land on never-touched frames: each must materialize its
     own record, never write the shared one. *)
  ignore
    (Inject.Campaign.run ~jobs:1 ~n:40
       { Inject.Run.default_config with Inject.Run.fault = Inject.Fault.Data });
  let hv = boot () in
  let pfn = hv.Hyper.Hypervisor.pfn in
  let rng = Sim.Rng.create 5L in
  List.iter
    (fun target ->
      for _ = 1 to 200 do
        Inject.Corrupt.apply hv rng target
      done)
    Inject.Corrupt.[ Pfn_validated_flip; Pfn_use_count_skew; Pfn_type_scramble ];
  checkb "shared descriptor reads as created" true (created_state Hyper.Pfn.created);
  checki "its index is no frame" (-1) Hyper.Pfn.created.Hyper.Pfn.index;
  checkb "never-touched frames still share it" true
    (count_shared pfn > Hyper.Pfn.frames pfn - 1000);
  checkb "a new table reads as created" true
    (Array.for_all (fun f -> f = (false, 0, Hyper.Pfn.Free, -1))
       (pfn_fields (Hyper.Pfn.create ~frames:64)))

let test_pfn_run_words_history_free () =
  (* A seed's minor words must not depend on the runs its worker served
     before: [restore] returns the frames a run materialized to the
     shared descriptor. *)
  List.iter
    (fun fault ->
      let cfg = { Inject.Run.default_config with Inject.Run.fault } in
      let words_of w seed =
        let cfg = { cfg with Inject.Run.seed } in
        minor_words (fun () -> ignore (Inject.Run.execute_into w cfg))
      in
      let first = words_of (Inject.Run.prepare cfg) 77L in
      let w = Inject.Run.prepare cfg in
      for i = 1 to 50 do
        ignore (Inject.Run.execute_into w { cfg with Inject.Run.seed = Int64.of_int (500 + i) })
      done;
      Alcotest.(check (float 0.0))
        (Inject.Fault.name fault ^ ": words first vs after 50 seeds")
        first (words_of w 77L))
    Inject.Fault.[ Failstop; Data ]

let test_pfn_reboot_in_place_like_fresh () =
  (* An in-place reboot returns every frame to the shared descriptor:
     it allocates what a reboot of a just-booted machine allocates, and
     the machine then digests and runs like a fresh boot. *)
  let like_fresh ~label ~setup used =
    let what s = label ^ ": " ^ s in
    let reboot hv =
      minor_words (fun () ->
          Hyper.Hypervisor.reboot_in_place hv ~config:Hyper.Config.nilihype ~setup
            ~vcpus_per_cpu:1)
    in
    let just_booted = boot ~setup () in
    Alcotest.(check (float 0.0)) (what "reboot words") (reboot just_booted) (reboot used);
    let fresh = boot ~setup () in
    Alcotest.(check string) (what "digest after boot") (Twin.digest fresh) (Twin.digest used);
    let warm hv = minor_words (fun () -> Twin.warmup hv (Sim.Rng.create 9L) ~steps:200) in
    Alcotest.(check (float 0.0)) (what "warmup words") (warm fresh) (warm used);
    Alcotest.(check string) (what "digest after warmup") (Twin.digest fresh) (Twin.digest used)
  in
  let used = boot () in
  Twin.warmup used (Sim.Rng.create 3L) ~steps:200;
  let rng = Sim.Rng.create 4L in
  for _ = 1 to 50 do
    Inject.Corrupt.apply used rng Inject.Corrupt.Pfn_type_scramble
  done;
  ignore (Hyper.Pfn.scan_and_fix used.Hyper.Hypervisor.pfn);
  like_fresh ~label:"3appvm" ~setup:Hyper.Hypervisor.Three_appvm used;
  (* A 200-tenant machine has ~4,900 live frames, past the live stack's
     initial size, and frames dirtied both before and after its golden
     refresh: [Pfn.reset] alone, walking only the live stack, must
     return every index to the created state. *)
  let setup = Hyper.Hypervisor.Tenant_fleet 200 in
  let used = boot ~setup () in
  Twin.warmup used (Sim.Rng.create 3L) ~steps:200;
  Hyper.Hypervisor.rebaseline used;
  Twin.warmup used (Sim.Rng.create 5L) ~steps:100;
  let pfn = used.Hyper.Hypervisor.pfn in
  Hyper.Pfn.reset pfn;
  checki "fleet: every frame shared after reset" (Hyper.Pfn.frames pfn) (count_shared pfn);
  checki "fleet: no dirty frame after reset" 0 (Hyper.Pfn.dirty_count pfn);
  checki "fleet: no born frame after reset" 0 (Hyper.Pfn.born_count pfn);
  like_fresh ~label:"fleet" ~setup used

let test_pfn_wild_write_untouched_frame () =
  (* An untracked wild write to a frame no run ever reached: [get]
     materializes it (a birth, not a write: the dirty count stays 0),
     and both full walks see the damage. *)
  let hv = boot () in
  Hyper.Hypervisor.rebaseline hv;
  let pfn = hv.Hyper.Hypervisor.pfn in
  let i = Hyper.Pfn.frames pfn - 1 in
  checkb "never touched" true (Hyper.Pfn.peek pfn i == Hyper.Pfn.created);
  (Hyper.Pfn.get pfn i).Hyper.Pfn.validated <- true;
  checki "born" 1 (Hyper.Pfn.born_count pfn);
  checki "not dirty" 0 (Hyper.Pfn.dirty_count pfn);
  checkb "shared descriptor untouched" true (created_state Hyper.Pfn.created);
  checki "audit finds it" 1 (Hyper.Hypervisor.audit hv).Hyper.Hypervisor.pfn_inconsistent;
  checki "full scan repairs it" 1 (Hyper.Pfn.scan_and_fix pfn);
  checki "consistent" 0 (Hyper.Pfn.count_inconsistent pfn)

let test_pfn_ledger_capture_materializes_nothing () =
  let hv = boot () in
  Hyper.Hypervisor.rebaseline hv;
  ignore (Hyper.Ledger.capture hv);
  checki "born stack empty after a capture" 0
    (Hyper.Pfn.born_count hv.Hyper.Hypervisor.pfn)

(* ------------------------- Spinlock --------------------------------- *)

let test_lock_acquire_release () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "held" true (Hyper.Spinlock.is_held l);
  Hyper.Spinlock.release l ~cpu:0;
  checkb "released" false (Hyper.Spinlock.is_held l)

let test_lock_dead_holder_hangs () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Heap in
  Hyper.Spinlock.acquire l ~cpu:1;
  (* cpu1's thread is discarded; cpu0 now spins forever -> watchdog. *)
  checkb "spin on dead holder" true
    (crashes (fun () -> Hyper.Spinlock.acquire l ~cpu:0))

let test_lock_recursive_panics () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "recursive acquisition" true
    (crashes (fun () -> Hyper.Spinlock.acquire l ~cpu:0))

let test_lock_wrong_release_panics () =
  let l = Hyper.Spinlock.create ~name:"t" ~location:Hyper.Spinlock.Static in
  Hyper.Spinlock.acquire l ~cpu:0;
  checkb "release by non-holder" true
    (crashes (fun () -> Hyper.Spinlock.release l ~cpu:1));
  Hyper.Spinlock.force_unlock l;
  checkb "release unheld" true (crashes (fun () -> Hyper.Spinlock.release l ~cpu:0))

let test_static_segment_unlock_all () =
  (* The "Unlock static locks" enhancement: the linker-script lock
     segment is walked and every held lock released. *)
  let seg = Hyper.Spinlock.Segment.create () in
  let mk name =
    let l = Hyper.Spinlock.create ~name ~location:Hyper.Spinlock.Static in
    Hyper.Spinlock.Segment.register seg l;
    l
  in
  let a = mk "a" and b = mk "b" and _c = mk "c" in
  Hyper.Spinlock.acquire a ~cpu:0;
  Hyper.Spinlock.acquire b ~cpu:2;
  checki "released two" 2 (Hyper.Spinlock.Segment.unlock_all seg);
  checkb "none held" false (Hyper.Spinlock.Segment.any_held seg)

let test_segment_rejects_heap_lock () =
  let seg = Hyper.Spinlock.Segment.create () in
  let l = Hyper.Spinlock.create ~name:"h" ~location:Hyper.Spinlock.Heap in
  Alcotest.check_raises "heap lock in static segment"
    (Invalid_argument "Spinlock.Segment.register: not a static lock") (fun () ->
      Hyper.Spinlock.Segment.register seg l)

(* ------------------------- Heap ------------------------------------- *)

let test_heap_alloc_free () =
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h ~size:128 Hyper.Heap.Generic in
  checki "bytes live" 128 (Hyper.Heap.bytes_live h);
  Hyper.Heap.free h o;
  checki "bytes after free" 0 (Hyper.Heap.bytes_live h)

let test_heap_double_free_panics () =
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.free h o;
  checkb "double free" true (crashes (fun () -> Hyper.Heap.free h o))

let test_heap_freelist_corruption_hangs () =
  let h = Hyper.Heap.create () in
  Hyper.Heap.corrupt_freelist h "test";
  checkb "alloc hangs" true
    (crashes (fun () -> Hyper.Heap.alloc h Hyper.Heap.Generic))

let test_heap_rebuild_repairs_freelist () =
  (* ReHype's "recreate the new heap" reboot step. *)
  let h = Hyper.Heap.create () in
  let o = Hyper.Heap.alloc h Hyper.Heap.Generic in
  Hyper.Heap.corrupt_freelist h "test";
  Hyper.Heap.rebuild_for_reboot h;
  checkb "freelist ok" true (Hyper.Heap.freelist_ok h);
  checkb "live object preserved" true o.Hyper.Heap.live;
  ignore (Hyper.Heap.alloc h Hyper.Heap.Generic)

let test_heap_release_locks () =
  (* The heap-lock release mechanism NiLiHype reuses from ReHype. *)
  let h = Hyper.Heap.create () in
  let l1 = Hyper.Spinlock.create ~name:"l1" ~location:Hyper.Spinlock.Heap in
  let l2 = Hyper.Spinlock.create ~name:"l2" ~location:Hyper.Spinlock.Heap in
  ignore (Hyper.Heap.alloc h (Hyper.Heap.Lock l1));
  ignore (Hyper.Heap.alloc h (Hyper.Heap.Lock l2));
  Hyper.Spinlock.acquire l1 ~cpu:0;
  checki "released one" 1 (Hyper.Heap.release_locks h);
  checkb "no heap lock held" false (Hyper.Heap.any_heap_lock_held h)

(* ------------------------- Timer heap ------------------------------- *)

let test_timer_heap_order () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:30 Hyper.Timer_heap.Generic_oneshot);
  ignore (Hyper.Timer_heap.add th ~deadline:10 Hyper.Timer_heap.Generic_oneshot);
  ignore (Hyper.Timer_heap.add th ~deadline:20 Hyper.Timer_heap.Generic_oneshot);
  let d () =
    match Hyper.Timer_heap.pop th with
    | Some e -> e.Hyper.Timer_heap.deadline
    | None -> -1
  in
  checki "10" 10 (d ());
  checki "20" 20 (d ());
  checki "30" 30 (d ())

let test_timer_pop_due_only () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:100 Hyper.Timer_heap.Generic_oneshot);
  checkb "not due" true (Hyper.Timer_heap.pop_due th ~now:50 = None);
  checkb "due" true (Hyper.Timer_heap.pop_due th ~now:100 <> None)

let test_timer_recurring_requeue () =
  let th = Hyper.Timer_heap.create () in
  let e = Hyper.Timer_heap.add th ~deadline:10 ~period:100 Hyper.Timer_heap.Time_sync in
  (match Hyper.Timer_heap.pop_due th ~now:10 with
  | Some e' -> checkb "same event" true (e == e')
  | None -> Alcotest.fail "expected due event");
  checkb "not queued mid-handler" false e.Hyper.Timer_heap.queued;
  Hyper.Timer_heap.requeue th e ~now:10;
  checkb "requeued" true e.Hyper.Timer_heap.queued;
  checkb "next deadline = now+period" true
    (Hyper.Timer_heap.next_deadline th = Some 110)

let test_timer_reactivate_recurring () =
  (* The "Reactivate recurring timer events" enhancement. *)
  let th = Hyper.Timer_heap.create () in
  let e = Hyper.Timer_heap.add th ~deadline:10 ~period:100 Hyper.Timer_heap.Time_sync in
  ignore (Hyper.Timer_heap.pop_due th ~now:10);
  (* handler abandoned before requeue: the event is lost *)
  checki "one missing" 1 (List.length (Hyper.Timer_heap.missing_recurring th));
  checki "reactivated" 1 (Hyper.Timer_heap.reactivate_recurring th ~now:50);
  checkb "queued again" true e.Hyper.Timer_heap.queued;
  checki "none missing" 0 (List.length (Hyper.Timer_heap.missing_recurring th))

let test_timer_structure_corruption_panics () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:10 Hyper.Timer_heap.Generic_oneshot);
  Hyper.Timer_heap.corrupt_structure th;
  checkb "pop panics" true (crashes (fun () -> Hyper.Timer_heap.pop th))

let test_timer_rebuild_for_reboot () =
  let th = Hyper.Timer_heap.create () in
  ignore (Hyper.Timer_heap.add th ~deadline:10 ~period:50 Hyper.Timer_heap.Time_sync);
  ignore (Hyper.Timer_heap.add th ~deadline:20 Hyper.Timer_heap.Generic_oneshot);
  Hyper.Timer_heap.corrupt_structure th;
  Hyper.Timer_heap.rebuild_for_reboot th ~now:1000;
  checkb "structure repaired" true (Hyper.Timer_heap.structure_ok th);
  (* Recurring events re-registered; the oneshot is gone (fresh heap). *)
  checki "one event" 1 (Hyper.Timer_heap.size th);
  checkb "heap property" true (Hyper.Timer_heap.heap_property_holds th)

let test_timer_heap_property_random () =
  let th = Hyper.Timer_heap.create () in
  let r = Sim.Rng.create 17L in
  for _ = 1 to 200 do
    ignore
      (Hyper.Timer_heap.add th ~deadline:(Sim.Rng.int r 1000)
         Hyper.Timer_heap.Generic_oneshot)
  done;
  checkb "heap property holds" true (Hyper.Timer_heap.heap_property_holds th)

(* ------------------------- Journal ---------------------------------- *)

let test_journal_undo_refcount () =
  let j = Hyper.Journal.create () in
  Hyper.Journal.set_enabled j true;
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Writable in
  Hyper.Journal.log j (Hyper.Journal.Use_count_delta (d, 1));
  Hyper.Pfn.get_page d;
  checki "2 refs" 2 d.Hyper.Pfn.use_count;
  Hyper.Journal.undo_all j;
  checki "undone to 1" 1 d.Hyper.Pfn.use_count

let test_journal_undo_validation () =
  let j = Hyper.Journal.create () in
  Hyper.Journal.set_enabled j true;
  let t = Hyper.Pfn.create ~frames:4 in
  let d = Hyper.Pfn.alloc_frame t ~owner:1 ~ptype:Hyper.Pfn.Page_table in
  Hyper.Journal.log j (Hyper.Journal.Validated_set d);
  Hyper.Pfn.validate d;
  Hyper.Journal.undo_all j;
  checkb "validation undone" false d.Hyper.Pfn.validated;
  (* After undo, a retry can validate again without panicking. *)
  Hyper.Pfn.validate d;
  checkb "retry validates cleanly" true d.Hyper.Pfn.validated

let test_journal_disabled_logs_nothing () =
  let j = Hyper.Journal.create () in
  let x = ref 0 in
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 5));
  x := 5;
  Hyper.Journal.undo_all j;
  checki "nothing undone when disabled" 5 !x

let test_journal_commit_clears () =
  let j = Hyper.Journal.create () in
  Hyper.Journal.set_enabled j true;
  let x = ref 0 in
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 5));
  x := 5;
  Hyper.Journal.commit j;
  Hyper.Journal.undo_all j;
  checki "committed changes stay" 5 !x

let test_journal_undo_order () =
  (* Entries must be undone newest-first. *)
  let j = Hyper.Journal.create () in
  Hyper.Journal.set_enabled j true;
  let log = ref [] in
  Hyper.Journal.log j (Hyper.Journal.Undo_fn (fun () -> log := 1 :: !log));
  Hyper.Journal.log j (Hyper.Journal.Undo_fn (fun () -> log := 2 :: !log));
  Hyper.Journal.undo_all j;
  Alcotest.check (Alcotest.list Alcotest.int) "newest first" [ 1; 2 ] !log

let test_journal_depth_tracks_entries () =
  let j = Hyper.Journal.create () in
  Hyper.Journal.set_enabled j true;
  let x = ref 0 in
  checki "empty journal" 0 (Hyper.Journal.depth j);
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 1));
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 2));
  checki "two entries" 2 (Hyper.Journal.depth j);
  Hyper.Journal.undo_all j;
  checki "zero after undo_all" 0 (Hyper.Journal.depth j);
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 3));
  checki "one entry" 1 (Hyper.Journal.depth j);
  Hyper.Journal.commit j;
  checki "zero after commit" 0 (Hyper.Journal.depth j);
  (* Logging while disabled records nothing, so depth stays 0. *)
  Hyper.Journal.set_enabled j false;
  Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, 4));
  checki "disabled journal stays empty" 0 (Hyper.Journal.depth j)

(* ------------------------- Boot / domains --------------------------- *)

let test_boot_three_appvm () =
  let hv = boot () in
  checki "privvm + 2 app + idle" 4 (List.length (Hyper.Hypervisor.all_domains hv));
  checki "2 app domains" 2 (List.length (Hyper.Hypervisor.app_domains hv));
  checkb "privvm exists" true (Hyper.Hypervisor.privvm hv).Hyper.Domain.privileged;
  checkb "idle exists" true (Hyper.Hypervisor.idle_domain hv).Hyper.Domain.is_idle

let test_boot_audit_clean () =
  let hv = boot () in
  let report = Hyper.Hypervisor.audit hv in
  checkb "fresh system audits clean" true (Hyper.Hypervisor.audit_clean report)

let test_boot_apics_armed () =
  let hv = boot () in
  Hw.Machine.iter_cpus hv.Hyper.Hypervisor.machine (fun c ->
      checkb "apic armed" true (Hw.Apic.timer_armed c.Hw.Cpu.apic))

let test_domain_create_destroy () =
  let hv = boot () in
  let free_before = Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn in
  let d =
    Hyper.Hypervisor.create_domain_internal hv ~privileged:false ~vcpu_pins:[ 4 ]
      ~mem_frames:32
  in
  checkb "fewer free frames" true
    (Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn < free_before);
  Hyper.Hypervisor.destroy_domain_internal hv d;
  checki "frames returned" free_before (Hyper.Pfn.free_frames hv.Hyper.Hypervisor.pfn);
  checkb "audit clean after destroy" true
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

(* ------------------------- Activities ------------------------------- *)

let run_n hv rng n =
  let bench = Workloads.Workload.create Workloads.Workload.Unixbench ~domid:1 in
  for _ = 1 to n do
    Hyper.Hypervisor.execute hv rng (Workloads.Workload.sample_activity rng bench)
  done

let test_healthy_workload_stays_clean () =
  let hv = boot () in
  let rng = Sim.Rng.create 123L in
  run_n hv rng 500;
  checkb "audit clean after 500 activities" true
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

let test_hypercall_completes_and_clears_record () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 });
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "record cleared" true (v.Hyper.Domain.in_hypercall = None)

let test_abandoned_hypercall_leaves_partial_state () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 2 })
    ~stop_at:4;
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  checkb "in-flight record remains" true (v.Hyper.Domain.in_hypercall <> None);
  (* The per-domain page lock is stuck held. *)
  checkb "audit dirty" false
    (Hyper.Hypervisor.audit_clean (Hyper.Hypervisor.audit hv))

let test_abandoned_timer_tick_disarms_apic () =
  let hv = boot () in
  let rng = Sim.Rng.create 5L in
  Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Timer_tick 1) ~stop_at:3;
  let apic = (Hw.Machine.cpu hv.Hyper.Hypervisor.machine 1).Hw.Cpu.apic in
  checkb "apic left disarmed" false (Hw.Apic.timer_armed apic)

let test_retry_without_undo_can_panic () =
  (* Force an unenhanced-style retry: disable logging so the journal is
     empty, abandon an mmu_update mid-flight past its critical updates,
     then retry. *)
  let hv = boot ~config:Hyper.Config.stock () in
  let rng = Sim.Rng.create 77L in
  let dom = Option.get (Hyper.Hypervisor.domain hv 1) in
  let v = Hyper.Domain.vcpu dom 0 in
  (* Abandon late in the handler, after unpin/validate steps. *)
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 })
    ~stop_at:8;
  (match v.Hyper.Domain.in_hypercall with
  | None -> Alcotest.fail "expected in-flight hypercall"
  | Some _ -> ());
  Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
  checkb "naive retry panics" true
    (crashes (fun () -> Hyper.Hypervisor.retry_hypercall hv rng v))

let test_retry_with_undo_succeeds () =
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 42L in
  let dom = Option.get (Hyper.Hypervisor.domain hv 1) in
  let v = Hyper.Domain.vcpu dom 0 in
  (* Find a seed/abandon point where the record is journaled
     (mitigation_coverage < 1, so sample until we get an enhanced one). *)
  let rec try_once attempt =
    if attempt > 20 then Alcotest.fail "no enhanced record sampled"
    else begin
      Hyper.Hypervisor.execute_partial hv rng
        (Hyper.Hypervisor.Hypercall
           { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 })
        ~stop_at:8;
      match v.Hyper.Domain.in_hypercall with
      | Some r when r.Hyper.Hypercalls.enhanced ->
        Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
        Hyper.Hypervisor.retry_hypercall hv rng v;
        checkb "record cleared after retry" true (v.Hyper.Domain.in_hypercall = None)
      | Some _ ->
        (* Unenhanced sample: clean up and try again. *)
        Hyper.Spinlock.force_unlock dom.Hyper.Domain.page_lock;
        v.Hyper.Domain.in_hypercall <- None;
        ignore (Hyper.Pfn.scan_and_fix hv.Hyper.Hypervisor.pfn);
        try_once (attempt + 1)
      | None -> try_once (attempt + 1)
    end
  in
  try_once 0

let test_multicall_progress_tracking () =
  (* Fine-granularity batched retry: completed components are skipped. *)
  let hv = boot ~config:Hyper.Config.nilihype () in
  let rng = Sim.Rng.create 9L in
  let v = Hyper.Domain.vcpu (Option.get (Hyper.Hypervisor.domain hv 1)) 0 in
  let kind =
    Hyper.Hypercalls.Multicall
      [ Hyper.Hypercalls.Event_channel_send; Hyper.Hypercalls.Console_io;
        Hyper.Hypercalls.Event_channel_send ]
  in
  Hyper.Hypervisor.execute_partial hv rng
    (Hyper.Hypervisor.Hypercall { domid = 1; vid = 0; kind })
    ~stop_at:9;
  (match v.Hyper.Domain.in_hypercall with
  | Some r ->
    checkb "some components completed" true (r.Hyper.Hypercalls.sub_completed > 0)
  | None -> Alcotest.fail "expected in-flight multicall");
  Hyper.Spinlock.force_unlock hv.Hyper.Hypervisor.console_lock;
  (match Hyper.Hypervisor.domain hv 1 with
  | Some d ->
    Hyper.Spinlock.force_unlock d.Hyper.Domain.evtchn.Hyper.Evtchn.lock
  | None -> ());
  Hyper.Hypervisor.retry_hypercall hv rng v;
  checkb "multicall completed on retry" true (v.Hyper.Domain.in_hypercall = None)

let test_domctl_create_via_hypercall () =
  let hv = boot () in
  let rng = Sim.Rng.create 3L in
  let before = List.length (Hyper.Hypervisor.app_domains hv) in
  Hyper.Hypervisor.execute hv rng
    (Hyper.Hypervisor.Hypercall
       { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain });
  checki "one more app domain" (before + 1)
    (List.length (Hyper.Hypervisor.app_domains hv))

let test_domctl_fails_with_corrupt_static_data () =
  let hv = boot () in
  let rng = Sim.Rng.create 3L in
  hv.Hyper.Hypervisor.static_data_ok <- false;
  checkb "create fails" true
    (crashes (fun () ->
         Hyper.Hypervisor.execute hv rng
           (Hyper.Hypervisor.Hypercall
              { domid = 0; vid = 0; kind = Hyper.Hypercalls.Domctl_create_domain })))

(* ------------------------- Sched ------------------------------------ *)

let test_sched_fix_from_percpu () =
  let hv = boot () in
  let vcpus = Hyper.Hypervisor.all_vcpus hv in
  (* Scramble the redundant per-vCPU records. *)
  let v = List.hd vcpus in
  v.Hyper.Domain.is_current <- not v.Hyper.Domain.is_current;
  v.Hyper.Domain.curr_slot <- 7;
  checkb "audit detects scramble" false
    (Hyper.Sched.audit hv.Hyper.Hypervisor.sched vcpus);
  ignore (Hyper.Sched.fix_from_percpu hv.Hyper.Hypervisor.sched vcpus);
  checkb "consistent after fix" true
    (Hyper.Sched.audit hv.Hyper.Hypervisor.sched vcpus)

let test_sched_abandoned_switch_detected () =
  let hv = boot () in
  let rng = Sim.Rng.create 31L in
  (* Abandon a context switch between the per-CPU and per-vCPU updates. *)
  Hyper.Hypervisor.execute_partial hv rng (Hyper.Hypervisor.Context_switch 1)
    ~stop_at:6;
  checkb "audit detects partial switch" false
    (Hyper.Sched.audit hv.Hyper.Hypervisor.sched (Hyper.Hypervisor.all_vcpus hv)
     && not
          (Hyper.Spinlock.is_held hv.Hyper.Hypervisor.percpu.(1).Hyper.Percpu.heap_lock))

let test_irq_count_assertions () =
  let hv = boot () in
  let p = hv.Hyper.Hypervisor.percpu.(0) in
  Hyper.Percpu.irq_enter p;
  checkb "schedule asserts in irq" true
    (crashes (fun () -> Hyper.Percpu.assert_not_in_irq p));
  Hyper.Percpu.irq_exit p;
  Hyper.Percpu.assert_not_in_irq p;
  checkb "irq_exit underflow asserts" true (crashes (fun () -> Hyper.Percpu.irq_exit p))

let test_irq_exit_assert_text () =
  let hv = boot () in
  check_panic "irq_exit at count 0" "ASSERT: cpu1: irq_exit with count 0" (fun () ->
      Hyper.Percpu.irq_exit hv.Hyper.Hypervisor.percpu.(1))

let test_irq_exit_no_alloc () =
  let hv = boot () in
  let p = hv.Hyper.Hypervisor.percpu.(0) in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          Hyper.Percpu.irq_enter p;
          Hyper.Percpu.irq_exit p
        done)
  in
  Alcotest.(check (float 0.0)) "minor words over 10k irq_exit" 0.0 words

(* A CPU whose per-CPU current record names a vCPU, and that vCPU. *)
let cpu_with_current hv =
  let sched = hv.Hyper.Hypervisor.sched in
  let rec go c =
    match Hyper.Sched.current sched ~cpu:c with
    | Some v -> (c, v)
    | None -> go (c + 1)
  in
  go 0

let test_schedule_assert_text () =
  let hv = boot () in
  let cpu, v = cpu_with_current hv in
  v.Hyper.Domain.is_current <- false;
  check_panic "schedule with mismatched records"
    (Printf.sprintf "ASSERT: schedule: cpu%d current vcpu d%dv%d lacks is_current" cpu
       v.Hyper.Domain.domid v.Hyper.Domain.vid)
    (fun () ->
      ignore
        (Hyper.Sched.schedule hv.Hyper.Hypervisor.sched
           hv.Hyper.Hypervisor.percpu.(cpu) ~cpu));
  v.Hyper.Domain.is_current <- true;
  v.Hyper.Domain.curr_slot <- cpu + 1;
  check_panic "schedule with a stale slot"
    (Printf.sprintf "ASSERT: schedule: cpu%d current vcpu d%dv%d says slot %d" cpu
       v.Hyper.Domain.domid v.Hyper.Domain.vid (cpu + 1))
    (fun () ->
      ignore
        (Hyper.Sched.schedule hv.Hyper.Hypervisor.sched
           hv.Hyper.Hypervisor.percpu.(cpu) ~cpu))

let test_ctx_switch_assert_text () =
  let hv = boot () in
  let cpu, prev = cpu_with_current hv in
  let sched = hv.Hyper.Hypervisor.sched in
  (* Queue another vCPU on this CPU so the switch has a next to pick. *)
  let next =
    List.find
      (fun (v : Hyper.Domain.vcpu) -> v.Hyper.Domain.processor = cpu && v != prev)
      (Hyper.Hypervisor.all_vcpus hv)
  in
  Hyper.Sched.enqueue sched next;
  prev.Hyper.Domain.is_current <- false;
  check_panic "context switch from a prev without is_current"
    (Printf.sprintf "ASSERT: schedule: cpu%d prev d%dv%d lost is_current" cpu
       prev.Hyper.Domain.domid prev.Hyper.Domain.vid)
    (fun () ->
      Hyper.Hypervisor.execute hv (Sim.Rng.create 1L)
        (Hyper.Hypervisor.Context_switch cpu))

(* ------------------------- Evtchn / Grant --------------------------- *)

let test_evtchn_bind_send () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  Hyper.Evtchn.send t ~port:3;
  checkb "pending consumed" true (Hyper.Evtchn.consume_pending t);
  checkb "only once" false (Hyper.Evtchn.consume_pending t)

let test_evtchn_double_bind_panics () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  checkb "double bind" true (crashes (fun () -> Hyper.Evtchn.bind t ~port:3))

let test_evtchn_bind_assert_text () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  check_panic "double bind" "ASSERT: evtchn: double bind of port 3" (fun () ->
      Hyper.Evtchn.bind t ~port:3)

let test_grant_map_assert_texts () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Grant.create heap ~slots:8 5 in
  check_panic "map of unused slot" "ASSERT: grant map of unused slot 1" (fun () ->
      Hyper.Grant.map t ~slot:1 ~by:0);
  Hyper.Grant.grant t ~slot:2 ~frame:100;
  Hyper.Grant.map t ~slot:2 ~by:0;
  check_panic "map twice" "ASSERT: grant slot 2 already mapped" (fun () ->
      Hyper.Grant.map t ~slot:2 ~by:0)

let test_evtchn_masked_no_pending () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Evtchn.create heap ~ports:8 5 in
  Hyper.Evtchn.bind t ~port:3;
  t.Hyper.Evtchn.chans.(3).Hyper.Evtchn.masked <- true;
  Hyper.Evtchn.send t ~port:3;
  checkb "masked port stays quiet" false (Hyper.Evtchn.consume_pending t)

let test_grant_map_unmap () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Grant.create heap ~slots:8 5 in
  Hyper.Grant.grant t ~slot:2 ~frame:100;
  Hyper.Grant.map t ~slot:2 ~by:0;
  checkb "double map panics" true (crashes (fun () -> Hyper.Grant.map t ~slot:2 ~by:0));
  Hyper.Grant.unmap t ~slot:2;
  checkb "double unmap panics" true (crashes (fun () -> Hyper.Grant.unmap t ~slot:2))

let test_grant_map_unused_panics () =
  let heap = Hyper.Heap.create () in
  let t = Hyper.Grant.create heap ~slots:8 5 in
  checkb "map of unused slot" true (crashes (fun () -> Hyper.Grant.map t ~slot:1 ~by:0))

(* ------------------------- Latency model ---------------------------- *)

let test_latency_pfn_scan_scales () =
  let small = Hyper.Latency_model.pfn_scan ~frames:1000 in
  let big = Hyper.Latency_model.pfn_scan ~frames:2000 in
  checki "proportional" (2 * small) big

let test_latency_reference_values () =
  (* At the paper's geometry the scan costs ~21 ms. *)
  let ns = Hyper.Latency_model.pfn_scan ~frames:Hyper.Latency_model.reference_frames in
  checkb "about 21ms" true (ns > Sim.Time.ms 20 && ns < Sim.Time.ms 22)

let () =
  Alcotest.run "hyper"
    [
      ( "pfn",
        [
          Alcotest.test_case "alloc/free" `Quick test_pfn_alloc_free_cycle;
          Alcotest.test_case "get/put balance" `Quick test_pfn_get_put_balance;
          Alcotest.test_case "double validate" `Quick test_pfn_double_validate_panics;
          Alcotest.test_case "double invalidate" `Quick test_pfn_double_invalidate_panics;
          Alcotest.test_case "refcount underflow" `Quick test_pfn_underflow_panics;
          Alcotest.test_case "get on free" `Quick test_pfn_get_on_free_panics;
          Alcotest.test_case "assert texts" `Quick test_pfn_assert_texts;
          Alcotest.test_case "get_page allocates 0" `Quick test_pfn_get_page_no_alloc;
          Alcotest.test_case "scan fixes validated-no-refs" `Quick
            test_pfn_scan_fixes_validated_zero_refs;
          Alcotest.test_case "scan fixes orphan typed page" `Quick
            test_pfn_scan_fixes_orphan_typed_page;
          Alcotest.test_case "scan idempotent" `Quick test_pfn_scan_idempotent;
          Alcotest.test_case "untracked write needs full scan" `Quick
            test_pfn_untracked_write_needs_full_scan;
          Alcotest.test_case "restore exact past stack capacity" `Quick
            test_pfn_restore_exact_past_stack_capacity;
          Alcotest.test_case "reset rewinds baseline" `Quick
            test_pfn_reset_rewinds_baseline;
          Alcotest.test_case "shared descriptor survives corruption" `Quick
            test_pfn_shared_survives_corruption;
          Alcotest.test_case "run words history-free" `Quick test_pfn_run_words_history_free;
          Alcotest.test_case "reboot_in_place like fresh boot" `Quick
            test_pfn_reboot_in_place_like_fresh;
          Alcotest.test_case "wild write to untouched frame" `Quick
            test_pfn_wild_write_untouched_frame;
          Alcotest.test_case "ledger capture materializes nothing" `Quick
            test_pfn_ledger_capture_materializes_nothing;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
          Alcotest.test_case "dead holder hangs" `Quick test_lock_dead_holder_hangs;
          Alcotest.test_case "recursive panics" `Quick test_lock_recursive_panics;
          Alcotest.test_case "wrong release panics" `Quick test_lock_wrong_release_panics;
          Alcotest.test_case "segment unlock_all" `Quick test_static_segment_unlock_all;
          Alcotest.test_case "segment rejects heap lock" `Quick
            test_segment_rejects_heap_lock;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc/free" `Quick test_heap_alloc_free;
          Alcotest.test_case "double free" `Quick test_heap_double_free_panics;
          Alcotest.test_case "freelist corruption hangs" `Quick
            test_heap_freelist_corruption_hangs;
          Alcotest.test_case "rebuild repairs" `Quick test_heap_rebuild_repairs_freelist;
          Alcotest.test_case "release locks" `Quick test_heap_release_locks;
        ] );
      ( "timer_heap",
        [
          Alcotest.test_case "ordering" `Quick test_timer_heap_order;
          Alcotest.test_case "pop due only" `Quick test_timer_pop_due_only;
          Alcotest.test_case "recurring requeue" `Quick test_timer_recurring_requeue;
          Alcotest.test_case "reactivate recurring" `Quick test_timer_reactivate_recurring;
          Alcotest.test_case "structure corruption" `Quick
            test_timer_structure_corruption_panics;
          Alcotest.test_case "rebuild for reboot" `Quick test_timer_rebuild_for_reboot;
          Alcotest.test_case "heap property random" `Quick test_timer_heap_property_random;
        ] );
      ( "journal",
        [
          Alcotest.test_case "undo refcount" `Quick test_journal_undo_refcount;
          Alcotest.test_case "undo validation" `Quick test_journal_undo_validation;
          Alcotest.test_case "disabled logs nothing" `Quick
            test_journal_disabled_logs_nothing;
          Alcotest.test_case "commit clears" `Quick test_journal_commit_clears;
          Alcotest.test_case "undo order" `Quick test_journal_undo_order;
          Alcotest.test_case "depth tracks entries" `Quick
            test_journal_depth_tracks_entries;
        ] );
      ( "boot",
        [
          Alcotest.test_case "three appvm" `Quick test_boot_three_appvm;
          Alcotest.test_case "audit clean" `Quick test_boot_audit_clean;
          Alcotest.test_case "apics armed" `Quick test_boot_apics_armed;
          Alcotest.test_case "domain create/destroy" `Quick test_domain_create_destroy;
        ] );
      ( "activities",
        [
          Alcotest.test_case "healthy workload" `Quick test_healthy_workload_stays_clean;
          Alcotest.test_case "hypercall completes" `Quick
            test_hypercall_completes_and_clears_record;
          Alcotest.test_case "abandonment leaves partial state" `Quick
            test_abandoned_hypercall_leaves_partial_state;
          Alcotest.test_case "abandoned tick disarms apic" `Quick
            test_abandoned_timer_tick_disarms_apic;
          Alcotest.test_case "retry without undo panics" `Quick
            test_retry_without_undo_can_panic;
          Alcotest.test_case "retry with undo succeeds" `Quick
            test_retry_with_undo_succeeds;
          Alcotest.test_case "multicall progress tracking" `Quick
            test_multicall_progress_tracking;
          Alcotest.test_case "domctl create" `Quick test_domctl_create_via_hypercall;
          Alcotest.test_case "domctl on corrupt static data" `Quick
            test_domctl_fails_with_corrupt_static_data;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fix from percpu" `Quick test_sched_fix_from_percpu;
          Alcotest.test_case "abandoned switch detected" `Quick
            test_sched_abandoned_switch_detected;
          Alcotest.test_case "irq count assertions" `Quick test_irq_count_assertions;
          Alcotest.test_case "irq_exit assert text" `Quick test_irq_exit_assert_text;
          Alcotest.test_case "irq_exit allocates 0" `Quick test_irq_exit_no_alloc;
          Alcotest.test_case "schedule assert texts" `Quick test_schedule_assert_text;
          Alcotest.test_case "ctx switch assert text" `Quick test_ctx_switch_assert_text;
        ] );
      ( "evtchn_grant",
        [
          Alcotest.test_case "bind/send" `Quick test_evtchn_bind_send;
          Alcotest.test_case "double bind" `Quick test_evtchn_double_bind_panics;
          Alcotest.test_case "bind assert text" `Quick test_evtchn_bind_assert_text;
          Alcotest.test_case "masked stays quiet" `Quick test_evtchn_masked_no_pending;
          Alcotest.test_case "grant map/unmap" `Quick test_grant_map_unmap;
          Alcotest.test_case "grant map unused" `Quick test_grant_map_unused_panics;
          Alcotest.test_case "grant map assert texts" `Quick test_grant_map_assert_texts;
        ] );
      ( "latency_model",
        [
          Alcotest.test_case "pfn scan scales" `Quick test_latency_pfn_scan_scales;
          Alcotest.test_case "reference values" `Quick test_latency_reference_values;
        ] );
    ]
