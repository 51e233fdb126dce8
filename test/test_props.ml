(* Property-based tests (QCheck) on the core data structures and the
   recovery invariants. *)

let seeded_rng i = Sim.Rng.create (Int64.of_int i)

(* ------------------------- Timer heap ------------------------------- *)

(* Popping a timer heap built from any deadline list yields the
   deadlines in sorted order. *)
let prop_timer_heap_sorts =
  QCheck.Test.make ~name:"timer_heap pops sorted"
    QCheck.(list (int_bound 1_000_000))
    (fun deadlines ->
      let th = Hyper.Timer_heap.create () in
      List.iter
        (fun d ->
          ignore (Hyper.Timer_heap.add th ~deadline:d Hyper.Timer_heap.Generic_oneshot))
        deadlines;
      let rec drain acc =
        match Hyper.Timer_heap.pop th with
        | Some e -> drain (e.Hyper.Timer_heap.deadline :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare deadlines)

(* The heap property holds after any interleaving of adds and pops. *)
let prop_timer_heap_property =
  QCheck.Test.make ~name:"timer_heap invariant under ops"
    QCheck.(list (pair bool (int_bound 1_000_000)))
    (fun ops ->
      let th = Hyper.Timer_heap.create () in
      List.iter
        (fun (pop, d) ->
          if pop then ignore (Hyper.Timer_heap.pop th)
          else ignore (Hyper.Timer_heap.add th ~deadline:d Hyper.Timer_heap.Generic_oneshot))
        ops;
      Hyper.Timer_heap.heap_property_holds th)

(* Reactivation restores every recurring event, regardless of which were
   lost. *)
let prop_timer_reactivate_complete =
  QCheck.Test.make ~name:"reactivate_recurring leaves none missing"
    QCheck.(pair (int_range 1 20) (list bool))
    (fun (n, losses) ->
      let th = Hyper.Timer_heap.create () in
      let events =
        List.init n (fun i ->
            Hyper.Timer_heap.add th ~deadline:(10 * (i + 1)) ~period:100
              Hyper.Timer_heap.Time_sync)
      in
      (* Lose a subset: pop them without requeueing. *)
      List.iteri
        (fun i lose ->
          if lose && i < n then begin
            let e = List.nth events i in
            if e.Hyper.Timer_heap.queued then begin
              (* pop until we take this one out, then push back others *)
              let popped = ref [] in
              let rec hunt () =
                match Hyper.Timer_heap.pop th with
                | Some e' when e' == e -> ()
                | Some e' ->
                  popped := e' :: !popped;
                  hunt ()
                | None -> ()
              in
              hunt ();
              List.iter
                (fun e' -> Hyper.Timer_heap.requeue th e' ~now:e'.Hyper.Timer_heap.deadline)
                !popped
            end
          end)
        losses;
      ignore (Hyper.Timer_heap.reactivate_recurring th ~now:0);
      Hyper.Timer_heap.missing_recurring th = [])

(* ------------------------- Pfn scan --------------------------------- *)

(* After scan_and_fix, every descriptor is consistent, for any pattern of
   validation-bit / use-counter corruption. *)
let prop_pfn_scan_restores_consistency =
  QCheck.Test.make ~name:"pfn scan_and_fix restores full consistency"
    QCheck.(list (pair (int_bound 31) (int_range (-3) 3)))
    (fun corruptions ->
      let t = Hyper.Pfn.create ~frames:32 in
      (* Allocate some frames to mix free and in-use descriptors. *)
      for i = 0 to 9 do
        ignore
          (Hyper.Pfn.alloc_frame t ~owner:1
             ~ptype:(if i mod 2 = 0 then Hyper.Pfn.Writable else Hyper.Pfn.Page_table))
      done;
      List.iter
        (fun (idx, delta) ->
          let d = Hyper.Pfn.get t idx in
          if delta = 0 then d.Hyper.Pfn.validated <- not d.Hyper.Pfn.validated
          else d.Hyper.Pfn.use_count <- d.Hyper.Pfn.use_count + delta)
        corruptions;
      ignore (Hyper.Pfn.scan_and_fix t);
      Hyper.Pfn.count_inconsistent t = 0)

(* The sparse table against a reference model that keeps every frame's
   fields, golden entry and materialized / born / dirty flag in plain
   per-index arrays. Random sequences of reads, allocations, puts,
   untracked wild writes, snapshots, restores (births included), resets
   and full scans must leave every index [peek]ing as the model says;
   the live-frame walks must count what a walk of every index counts;
   and a frame must have its own record exactly when it is on the live
   stack, there exactly once. *)
let prop_pfn_live_walks_match_oracle =
  let n = 24 in
  let fresh = (false, 0, Hyper.Pfn.Free, -1) in
  let fields (d : Hyper.Pfn.desc) = Hyper.Pfn.(d.validated, d.use_count, d.ptype, d.owner) in
  let types = Hyper.Pfn.[| Free; Writable; Page_table; Segdesc; Shared; Xenheap |] in
  QCheck.Test.make ~count:300 ~name:"pfn live-frame walks match an every-index oracle"
    QCheck.(list_of_size Gen.(int_range 1 80)
              (triple (int_bound 11) (int_bound (n - 1)) (int_bound 5)))
    (fun ops ->
      let t = Hyper.Pfn.create ~frames:n in
      let cur = Array.make n fresh and gold = Array.make n fresh in
      let mat = Array.make n false and born = Array.make n false in
      let dirty = Array.make n false in
      let head = ref 0 and g_head = ref 0 in
      let get i =
        if not mat.(i) then begin
          mat.(i) <- true;
          born.(i) <- true
        end;
        Hyper.Pfn.get t i
      in
      let write i v = dirty.(i) <- true; cur.(i) <- v in
      let consistent i =
        match cur.(i) with
        | vl, use, Hyper.Pfn.Free, owner -> use = 0 && owner = -1 && not vl
        | _, use, _, _ -> use > 0 && use <= 1_000_000
      in
      let is_free i =
        let _, _, ty, _ = cur.(i) in
        ty = Hyper.Pfn.Free
      in
      let count p = Array.fold_left (fun a b -> if b then a + 1 else a) 0 (Array.init n p) in
      let check () =
        let on_stack = Array.make n 0 and stray = ref false in
        Hyper.Pfn.iter_live t (fun d ->
            if d == Hyper.Pfn.created then stray := true
            else on_stack.(d.Hyper.Pfn.index) <- on_stack.(d.Hyper.Pfn.index) + 1);
        (not !stray)
        && Array.for_all Fun.id
             (Array.init n (fun i ->
                  let d = Hyper.Pfn.peek t i in
                  fields d = cur.(i)
                  && (d != Hyper.Pfn.created) = mat.(i)
                  && on_stack.(i) = if mat.(i) then 1 else 0))
        && Hyper.Pfn.count_inconsistent t = count (fun i -> not (consistent i))
        && Hyper.Pfn.free_frames t = count is_free
        && Hyper.Pfn.dirty_count t = count (fun i -> dirty.(i))
        && Hyper.Pfn.born_count t = count (fun i -> born.(i))
      in
      List.for_all
        (fun (op, i, v) ->
          let ok =
            match op with
            | 0 | 1 -> ignore (get i); true
            | 2 | 3 -> (
              let rec find k =
                if k = n then None
                else
                  let j = (!head + k) mod n in
                  let vl, use, _, _ = cur.(j) in
                  if is_free j && use = 0 && not vl then Some j else find (k + 1)
              in
              let ptype = types.(1 + (v mod 5)) in
              match find 0 with
              | None -> (
                try ignore (Hyper.Pfn.alloc_frame t ~owner:v ~ptype); false
                with Hyper.Crash.Hypervisor_crash _ -> true)
              | Some j ->
                let d = Hyper.Pfn.alloc_frame t ~owner:v ~ptype in
                ignore (get j);
                write j (false, 1, ptype, v);
                head := (j + 1) mod n;
                d.Hyper.Pfn.index = j)
            | 4 -> (
              let d = get i in
              let vl, use, ty, owner = cur.(i) in
              if use <= 0 then
                try Hyper.Pfn.put_page d; false
                with Hyper.Crash.Hypervisor_crash _ -> true
              else begin
                Hyper.Pfn.put_page d;
                write i (if use = 1 then fresh else (vl, use - 1, ty, owner));
                true
              end)
            | 5 | 6 ->
              (* A wild write: no [touch], so no dirty mark. *)
              let d = get i in
              (match v with
              | 0 | 1 -> d.Hyper.Pfn.validated <- not d.Hyper.Pfn.validated
              | 2 -> d.Hyper.Pfn.use_count <- d.Hyper.Pfn.use_count + 2 - (4 * (i land 1))
              | _ -> d.Hyper.Pfn.ptype <- types.(v));
              cur.(i) <- fields d;
              true
            | 7 ->
              Hyper.Pfn.snapshot t;
              for j = 0 to n - 1 do
                if dirty.(j) then gold.(j) <- cur.(j);
                dirty.(j) <- false;
                born.(j) <- false
              done;
              g_head := !head;
              true
            | 8 ->
              Hyper.Pfn.restore t;
              for j = 0 to n - 1 do
                if dirty.(j) then cur.(j) <- gold.(j);
                if born.(j) then begin
                  cur.(j) <- fresh;
                  mat.(j) <- false
                end;
                dirty.(j) <- false;
                born.(j) <- false
              done;
              head := !g_head;
              true
            | 9 ->
              Hyper.Pfn.reset t;
              Array.fill cur 0 n fresh;
              Array.fill gold 0 n fresh;
              List.iter (fun a -> Array.fill a 0 n false) [ mat; born; dirty ];
              head := 0;
              g_head := 0;
              true
            | _ ->
              let bad = List.filter (fun j -> mat.(j) && not (consistent j)) (List.init n Fun.id) in
              let fixed = Hyper.Pfn.scan_and_fix t in
              (* [repair] is tested on its own; the model takes its
                 result and checks that nothing else moved. *)
              List.iter (fun j -> write j (fields (Hyper.Pfn.peek t j))) bad;
              fixed = List.length bad
          in
          ok && check ())
        ops)

(* ------------------------- Locks ------------------------------------ *)

(* unlock_all releases exactly the held locks and leaves the segment
   fully released, for any subset held. *)
let prop_static_segment_unlock_all =
  QCheck.Test.make ~name:"segment unlock_all releases exactly the held locks"
    QCheck.(list bool)
    (fun held_pattern ->
      let seg = Hyper.Spinlock.Segment.create () in
      let held = ref 0 in
      List.iteri
        (fun i h ->
          let l =
            Hyper.Spinlock.create ~name:(string_of_int i)
              ~location:Hyper.Spinlock.Static
          in
          Hyper.Spinlock.Segment.register seg l;
          if h then begin
            Hyper.Spinlock.acquire l ~cpu:(i mod 8);
            incr held
          end)
        held_pattern;
      let released = Hyper.Spinlock.Segment.unlock_all seg in
      released = !held && not (Hyper.Spinlock.Segment.any_held seg))

(* ------------------------- Journal ---------------------------------- *)

(* undo_all exactly inverts any sequence of journaled counter deltas. *)
let prop_journal_undo_inverts =
  QCheck.Test.make ~name:"journal undo_all inverts counter deltas"
    QCheck.(list (int_range (-10) 10))
    (fun deltas ->
      let j = Hyper.Journal.create () in
      Hyper.Journal.set_enabled j true;
      let x = ref 100 in
      List.iter
        (fun d ->
          Hyper.Journal.log j (Hyper.Journal.Counter_delta (x, d));
          x := !x + d)
        deltas;
      Hyper.Journal.undo_all j;
      !x = 100)

(* ------------------------- Scheduler -------------------------------- *)

(* fix_from_percpu makes the metadata consistent for any scramble of the
   redundant per-vCPU records. *)
let prop_sched_fix_restores_consistency =
  QCheck.Test.make ~name:"sched fix_from_percpu restores consistency"
    QCheck.(list (triple (int_bound 20) (int_bound 2) (int_bound 8)))
    (fun scrambles ->
      let clock = Sim.Clock.create () in
      let hv =
        Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
          ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm clock
      in
      let vcpus = Array.of_list (Hyper.Hypervisor.all_vcpus hv) in
      List.iter
        (fun (vi, field, value) ->
          let v = vcpus.(vi mod Array.length vcpus) in
          match field with
          | 0 -> v.Hyper.Domain.is_current <- not v.Hyper.Domain.is_current
          | 1 -> v.Hyper.Domain.curr_slot <- (value mod 8) - 1
          | _ ->
            v.Hyper.Domain.runstate <-
              (if value mod 2 = 0 then Hyper.Domain.Running else Hyper.Domain.Runnable))
        scrambles;
      ignore
        (Hyper.Sched.fix_from_percpu hv.Hyper.Hypervisor.sched
           (Hyper.Hypervisor.all_vcpus hv));
      Hyper.Sched.audit hv.Hyper.Hypervisor.sched (Hyper.Hypervisor.all_vcpus hv))

(* ------------------------- Rng -------------------------------------- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds"
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let r = seeded_rng seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_reproducible =
  QCheck.Test.make ~name:"rng streams reproducible" QCheck.small_int (fun seed ->
      let a = seeded_rng seed and b = seeded_rng seed in
      List.init 20 (fun _ -> Sim.Rng.int64 a)
      = List.init 20 (fun _ -> Sim.Rng.int64 b))

(* ------------------------- Recovery invariant ----------------------- *)

(* Full-enhancement microreset always leaves: zero IRQ counts, no held
   locks, consistent scheduler metadata, armed APICs -- no matter which
   activities were abandoned at which steps. *)
let prop_microreset_postconditions =
  QCheck.Test.make ~name:"microreset postconditions for any abandonment" ~count:60
    QCheck.(pair small_int (list (pair (int_bound 4) (int_bound 12))))
    (fun (seed, abandonments) ->
      let clock = Sim.Clock.create () in
      let hv =
        Hyper.Hypervisor.boot ~mconfig:Hw.Machine.campaign_config
          ~config:Hyper.Config.nilihype ~setup:Hyper.Hypervisor.Three_appvm clock
      in
      let rng = seeded_rng seed in
      List.iter
        (fun (which, stop_at) ->
          let activity =
            match which with
            | 0 -> Hyper.Hypervisor.Timer_tick (stop_at mod 3)
            | 1 -> Hyper.Hypervisor.Context_switch (stop_at mod 3)
            | 2 ->
              Hyper.Hypervisor.Hypercall
                { domid = 1; vid = 0; kind = Hyper.Hypercalls.Mmu_update 1 }
            | 3 ->
              Hyper.Hypervisor.Hypercall
                { domid = 2; vid = 0; kind = Hyper.Hypercalls.Grant_table_op 2 }
            | _ -> Hyper.Hypervisor.Device_interrupt { line = 1; target_dom = 1 }
          in
          try Hyper.Hypervisor.execute_partial hv rng activity ~stop_at
          with Hyper.Crash.Hypervisor_crash _ -> ())
        abandonments;
      Array.iter Hyper.Percpu.irq_enter hv.Hyper.Hypervisor.percpu;
      ignore
        (Recovery.Microreset.recover hv ~enh:Recovery.Enhancement.full_set
           ~detected_on:0);
      let report = Hyper.Hypervisor.audit hv in
      report.Hyper.Hypervisor.irq_counts_nonzero = 0
      && report.Hyper.Hypervisor.static_locks_held = 0
      && (not report.Hyper.Hypervisor.heap_locks_held)
      && report.Hyper.Hypervisor.sched_consistent
      && report.Hyper.Hypervisor.apics_unarmed = 0
      && report.Hyper.Hypervisor.recurring_missing = 0
      && report.Hyper.Hypervisor.pfn_inconsistent = 0)

(* Run determinism: identical configs and seeds give identical outcomes. *)
let prop_run_deterministic =
  QCheck.Test.make ~name:"fault-injection runs deterministic" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg =
        {
          Inject.Run.default_config with
          Inject.Run.seed = Int64.of_int seed;
          fault = Inject.Fault.Register;
        }
      in
      let a = Inject.Run.run cfg and b = Inject.Run.run cfg in
      match (a, b) with
      | Inject.Run.Non_manifested, Inject.Run.Non_manifested
      | Inject.Run.Silent_corruption, Inject.Run.Silent_corruption ->
        true
      | Inject.Run.Detected da, Inject.Run.Detected db ->
        da.Inject.Run.success = db.Inject.Run.success
        && da.Inject.Run.no_vmf = db.Inject.Run.no_vmf
        && da.Inject.Run.recovery_latency = db.Inject.Run.recovery_latency
      | _ -> false)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "data_structures",
        List.map to_alcotest
          [
            prop_timer_heap_sorts;
            prop_timer_heap_property;
            prop_timer_reactivate_complete;
            prop_pfn_scan_restores_consistency;
            prop_pfn_live_walks_match_oracle;
            prop_static_segment_unlock_all;
            prop_journal_undo_inverts;
            prop_sched_fix_restores_consistency;
            prop_rng_int_in_bounds;
            prop_rng_reproducible;
          ] );
      ( "recovery",
        List.map to_alcotest [ prop_microreset_postconditions; prop_run_deterministic ]
      );
    ]
