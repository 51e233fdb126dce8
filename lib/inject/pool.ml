(** Parallel work pool over OCaml 5 domains, and the chunk engine that
    runs every campaign and endurance soak.

    Campaigns are embarrassingly parallel: each injection run is a pure
    function of [(config, seed)], with no shared mutable state anywhere
    in the simulator (every run boots its own machine and derives every
    stochastic decision from its own splitmix64 stream). The pool
    exploits that with shared-nothing workers: [jobs] domains claim
    fixed chunks of the index range [0, n) from a single [Atomic]
    cursor ({!map_chunks}, the pool's one claiming loop).
    {!map_reduce} folds into worker-local accumulators on top of it;
    {!run_chunks} publishes each chunk's totals to a coordinator
    aggregate and, given a {!checkpoint}, persists and resumes it.

    Determinism contract: as long as [body] is a pure function of the
    index (per accumulator) and [merge] is commutative and associative,
    the final accumulator is identical for every value of [jobs] and
    [chunk] -- only the wall-clock time changes. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Chunked self-scheduling: aim for ~4 chunks per worker, so cursor
   contention stays negligible while the tail imbalance is bounded by a
   quarter of a worker's share. Capped at [default_chunk_cap]: beyond
   ~16k items the cursor is already uncontended, and soak campaigns want
   many small chunks for checkpoint granularity and tail balance rather
   than a handful of enormous ones. *)
let default_chunk_cap = 4096

let default_chunk ~n ~jobs =
  max 1 (min default_chunk_cap (n / (jobs * 4)))

(* The worker domains a pool run over [n] work items actually uses:
   [jobs] (default one per core, at least 1), bounded by the item count
   and, unless [oversubscribe] is set, by the core count (see
   [map_chunks] for why). Callers report this number. *)
let used_jobs ?jobs ?(oversubscribe = false) ~n () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs (max 1 n) in
  if oversubscribe then jobs else min jobs (default_jobs ())

(* [map_chunks] runs [body w c] for every chunk [c] in [0, n_chunks)
   not marked by [skip]: workers claim whole chunks from an [Atomic]
   cursor, and each finished chunk's result is handed to [publish]
   under a single mutex -- so a coordinator can fold chunk results into
   a running aggregate and know exactly which chunks it covers. [init]
   receives the worker's slot index ([0] for the calling domain,
   [1 .. jobs-1] for spawned domains) and runs inside that worker's own
   domain, so it can both pick a slot-indexed resource (a pre-booted
   machine pool) and capture domain-local state; [finish] runs on the
   worker value in the same domain after its last chunk -- the place to
   read [Gc.minor_words], which is per-domain in OCaml 5. [should_stop]
   is polled before claiming each chunk (a simulated kill in tests);
   in-flight chunks still publish after it trips. With one worker no
   domain is spawned at all.

   The pool never runs more domains than the host has cores (unless
   [oversubscribe] is set): each domain's minor collection is a
   stop-the-world rendezvous of every domain, and when runnable domains
   outnumber cores that rendezvous waits on the OS scheduler --
   allocating work measures ~20x slower at 4 domains on 1 core. Capping
   at the core count costs nothing (the extra domains had no core to run
   on) and cannot change results. [oversubscribe] exists so tests can
   force the real multi-domain path on any host.

   [publish] and [finish] both run under the mutex: they are the only
   cross-domain communication, so [body] results must not be mutated by
   the worker after publishing. *)
let map_chunks ?jobs ?(oversubscribe = false)
    ?(should_stop = fun () -> false) ?(finish : ('w -> unit) option)
    ~n_chunks ~(skip : int -> bool) ~(init : int -> 'w)
    ~(body : 'w -> int -> 'a) ~(publish : int -> 'a -> unit) () : unit =
  let jobs = used_jobs ?jobs ~oversubscribe ~n:n_chunks () in
  let finish = match finish with Some f -> f | None -> fun _ -> () in
  let lock = Mutex.create () in
  let next = Atomic.make 0 in
  let worker slot =
    let w = init slot in
    let rec loop () =
      if not (should_stop ()) then begin
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then begin
          if not (skip c) then begin
            let r = body w c in
            Mutex.protect lock (fun () -> publish c r)
          end;
          loop ()
        end
      end
    in
    loop ();
    Mutex.protect lock (fun () -> finish w)
  in
  if jobs = 1 then worker 0
  else begin
    let spawned =
      Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned
  end

let n_chunks ~n ~chunk = (max 0 n + chunk - 1) / chunk

(* [map_reduce ~jobs ~chunk ~n ~init ~body ~merge] folds [body acc i]
   for every [i] in [0, n) into worker-local accumulators created by
   [init slot] (see {!map_chunks} for [init], [finish] and the core
   cap), then combines them with [merge] in slot order. [jobs] defaults
   to [default_jobs ()]. *)
let map_reduce ?jobs ?chunk ?(oversubscribe = false)
    ?(finish : ('acc -> unit) option) ~n ~(init : int -> 'acc)
    ~(body : 'acc -> int -> unit) ~(merge : 'acc -> 'acc -> 'acc) () : 'acc =
  let jobs = used_jobs ?jobs ~oversubscribe ~n () in
  let chunk =
    match chunk with Some c -> max 1 c | None -> default_chunk ~n ~jobs
  in
  let accs = Array.make jobs None in
  map_chunks ~jobs ~oversubscribe ~n_chunks:(n_chunks ~n ~chunk)
    ~skip:(fun _ -> false)
    ~init:(fun slot -> (slot, init slot))
    ~body:(fun (_, acc) c ->
      for i = c * chunk to min n ((c + 1) * chunk) - 1 do
        body acc i
      done)
    ~publish:(fun _ () -> ())
    ~finish:(fun (slot, acc) ->
      Option.iter (fun f -> f acc) finish;
      accs.(slot) <- Some acc)
    ();
  match List.filter_map Fun.id (Array.to_list accs) with
  | acc :: rest -> List.fold_left merge acc rest
  | [] -> assert false (* slot 0 always runs *)

(* ------------------------------------------------------------------ *)
(* The chunk engine: campaigns and endurance soaks                     *)
(* ------------------------------------------------------------------ *)

(* Checkpointing a run: the work range is cut into fixed chunks; each
   completed chunk's totals are merged into the coordinator aggregate,
   and every [ck_every] publishes the aggregate plus the completed-chunk
   bitmap are written atomically to [ck_path] as an nlh-checkpoint/1
   file. Because chunk boundaries are fixed by the item count and
   [chunk] -- never by [jobs] -- and the totals merge is commutative, a
   resumed run reproduces the exact aggregate of an uninterrupted one,
   whatever [jobs] it resumes with. [ck_stop_after] stops claiming new
   chunks after that many have been published: the test harness's
   simulated kill. *)
type checkpoint = {
  ck_path : string;
  ck_every : int; (* write the file every this many published chunks *)
  ck_resume : bool; (* load [ck_path] and skip completed chunks *)
  ck_stop_after : int option;
}

type ('pin, 't) run = {
  totals : 't;
  pin : 'pin; (* the pinned parameters the run used: the file's on resume *)
  jobs : int; (* worker domains actually used *)
  wall_seconds : float;
  minor_words : float;
      (* host minor-heap words allocated across all workers, summed from
         each worker domain's own [Gc.minor_words]. Host-side accounting
         only: deliberately NOT part of [totals], which stay bit-identical
         across hosts and [jobs] values. *)
}

(* Run the work [work pin] = [(n, body)] in fixed chunks of [chunk]
   items: each chunk folds [body w t i] over its items into a [fresh ()]
   totals [t] on a worker [w = init slot], then publishes [t] into one
   coordinator aggregate with [merge_into]. Memory never scales with
   [n]: the coordinator owns the only growing state, one aggregate plus
   the done bitmap.

   [pin] carries the parameters a checkpoint pins besides [chunk] (the
   campaign's fan-out, which shapes [work]); [encode pin totals] is the
   checkpoint payload and [decode] reads it back. On [ck_resume] the
   file's kind, [fingerprint] (config/seed identity), payload and chunk
   geometry are checked -- any mismatch is an [Invalid_argument] naming
   [who] -- and the file's [chunk], [pin], aggregate and done bitmap
   replace the caller's. Without a checkpoint the same loop runs and
   writes nothing; with one, a final file is always written. *)
let run_chunks ~who ?(jobs = 1) ?chunk ?(oversubscribe = false)
    ?(checkpoint : checkpoint option) ~kind ~fingerprint ~(fresh : unit -> 't)
    ~(merge_into : 't -> 't -> unit) ~(encode : 'pin -> 't -> Obs.Json.t)
    ~(decode : Obs.Json.t -> ('pin * 't, string) result) ~(pin : 'pin)
    ~(work : 'pin -> int * ('w -> 't -> int -> unit)) ~(init : int -> 'w) () =
  let refuse fmt = Printf.ksprintf (fun s -> invalid_arg (who ^ ": " ^ s)) fmt in
  let resumed =
    match checkpoint with
    | Some { ck_resume = true; ck_path; _ } -> (
      let unreadable msg = refuse "cannot resume from %s: %s" ck_path msg in
      match Obs.Checkpoint.read ck_path with
      | Error msg -> unreadable msg
      | Ok (h, payload) -> (
        if h.Obs.Checkpoint.kind <> kind then
          refuse "checkpoint kind %S is not %S" h.Obs.Checkpoint.kind kind;
        if h.Obs.Checkpoint.fingerprint <> fingerprint then
          refuse "checkpoint fingerprint mismatch\n  file: %s\n  run:  %s"
            h.Obs.Checkpoint.fingerprint fingerprint;
        match decode payload with
        | Error msg -> unreadable msg
        | Ok (pin, t) -> Some (h, pin, t)))
    | _ -> None
  in
  let pin = match resumed with Some (_, p, _) -> p | None -> pin in
  let n, body = work pin in
  let chunk =
    match (resumed, chunk) with
    | Some (h, _, _), _ -> h.Obs.Checkpoint.chunk
    | None, Some c -> max 1 c
    | None, None -> default_chunk ~n ~jobs:(max 1 jobs)
  in
  let n_chunks = n_chunks ~n ~chunk in
  let merged, done_chunks =
    match resumed with
    | Some (h, _, t) ->
      (* The file's geometry must reproduce from (n, chunk): a file
         written for a different range would mis-map chunk indices to
         seed ranges. *)
      if h.Obs.Checkpoint.n_chunks <> n_chunks then
        refuse "checkpoint has %d chunks but %d items in chunks of %d imply %d"
          h.Obs.Checkpoint.n_chunks n chunk n_chunks;
      (t, h.Obs.Checkpoint.done_chunks)
    | None -> (fresh (), Array.make n_chunks false)
  in
  let t0 = Unix.gettimeofday () in
  let published = ref 0 in
  let minor_words = ref 0.0 in
  let write_ck ck =
    Obs.Checkpoint.write ~path:ck.ck_path
      { Obs.Checkpoint.kind; fingerprint; chunk; n_chunks; done_chunks }
      ~payload:(encode pin merged)
  in
  map_chunks ~jobs ~oversubscribe ~n_chunks
    ~should_stop:(fun () ->
      match checkpoint with
      | Some { ck_stop_after = Some m; _ } -> !published >= m
      | _ -> false)
    ~skip:(fun c -> done_chunks.(c))
    ~init:(fun slot -> (Gc.minor_words (), init slot))
    ~body:(fun (_, w) c ->
      let t = fresh () in
      for i = c * chunk to min n ((c + 1) * chunk) - 1 do
        body w t i
      done;
      t)
    ~publish:(fun c t ->
      merge_into merged t;
      done_chunks.(c) <- true;
      incr published;
      match checkpoint with
      | Some ck when ck.ck_every > 0 && !published mod ck.ck_every = 0 ->
        write_ck ck
      | _ -> ())
    ~finish:(fun (minor_start, _) ->
      minor_words := !minor_words +. (Gc.minor_words () -. minor_start))
    ();
  (* Always leave a final consistent file, even when [ck_every] did not
     divide the published count (or nothing ran at all). *)
  Option.iter write_ck checkpoint;
  {
    totals = merged;
    pin;
    jobs = used_jobs ~jobs ~oversubscribe ~n:n_chunks ();
    wall_seconds = Unix.gettimeofday () -. t0;
    minor_words = !minor_words;
  }
