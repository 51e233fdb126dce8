(* Validate exported observability artifacts: well-formed JSON plus
   per-schema structural checks. Dispatches on document shape:

   - Chrome-trace timelines (a "traceEvents" array): rows all carry
     name/ph/ts and timestamps are globally non-decreasing.
   - "nlh-obs/1" metrics documents: counters/gauges are integer maps;
     histograms have strictly increasing bounds, counts one longer than
     bounds, counts summing to samples, and ordered quantile estimates.
   - "nlh-triage/1" triage documents: per-signature entries whose counts
     sum to the total, ascending seed sets, and well-formed exemplars.
   - "nlh-postmortem/1" bundles: signature grammar, timeline and
     flight-tail shape, monotone timeline timestamps.
   - "nlh-checkpoint/1" soak checkpoints: kind/fingerprint identity,
     ascending done-chunk indices in range, and a payload whose totals
     satisfy the per-kind accounting identities.
   - "nlh-fleet/1" fleet reports: known mechanisms appearing once each,
     request counts matching histogram samples, ordered latency
     quantiles, per-trial scan-path accounting, and a longest silence
     gap that is the recovery stall plus at most two request intervals.

   Accepts any number of files; used by the @check alias as the
   export smoke test. *)

open Obs.Json

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

(* --- Chrome-trace ---------------------------------------------------- *)

let check_chrome path events =
  let spans = ref 0 and instants = ref 0 in
  let last_ts = ref neg_infinity in
  List.iteri
    (fun i row ->
      if string (field "name" row) = "" then
        die "%s: traceEvents[%d]: empty name" path i;
      let ts = number (field "ts" row) in
      if ts < 0.0 then die "%s: traceEvents[%d]: negative ts" path i;
      if ts < !last_ts then
        die "%s: traceEvents[%d]: ts %.3f < previous %.3f (not monotone)" path
          i ts !last_ts;
      last_ts := ts;
      match string (field "ph" row) with
      | "X" ->
        if number (field "dur" row) < 0.0 then
          die "%s: traceEvents[%d]: negative dur" path i;
        incr spans
      | "i" -> incr instants
      | ph -> die "%s: traceEvents[%d]: unexpected ph %S" path i ph)
    events;
  Printf.printf "%s: OK chrome-trace (%d rows: %d spans, %d instants)\n" path
    (List.length events) !spans !instants

(* --- nlh-obs/1 ------------------------------------------------------- *)

let check_metrics path root =
  ignore (int_map (field "counters" root));
  ignore (int_map (field "gauges" root));
  let hists = obj (field "histograms" root) in
  List.iter
    (fun (name, h) ->
      let what = Printf.sprintf "histograms[%S]" name in
      let bounds = List.map number (list (field "bounds" h)) in
      let rec mono = function
        | a :: (b :: _ as r) ->
          if a >= b then die "%s: %s: bounds not strictly increasing" path what;
          mono r
        | _ -> ()
      in
      mono bounds;
      let counts =
        List.map
          (fun c ->
            let f = number c in
            if f < 0.0 then die "%s: %s: bad bucket count" path what;
            f)
          (list (field "counts" h))
      in
      if List.length counts <> List.length bounds + 1 then
        die "%s: %s: %d counts for %d bounds (want bounds+1)" path what
          (List.length counts) (List.length bounds);
      let samples = number (field "samples" h) in
      ignore (number (field "sum" h));
      if List.fold_left ( +. ) 0.0 counts <> samples then
        die "%s: %s: counts do not sum to samples" path what;
      (* Quantiles: present together iff the histogram is non-empty,
         and necessarily ordered. *)
      let q key = Option.map number (member key h) in
      match (q "p50", q "p99", q "p999") with
      | Some p50, Some p99, Some p999 ->
        if samples <= 0.0 then
          die "%s: %s: quantiles on an empty histogram" path what;
        if not (p50 <= p99 && p99 <= p999) then
          die "%s: %s: quantiles not ordered (p50 %g p99 %g p999 %g)" path
            what p50 p99 p999
      | None, None, None ->
        if samples > 0.0 then
          die "%s: %s: non-empty histogram missing quantiles" path what
      | _ -> die "%s: %s: partial quantile set" path what)
    hists;
  Printf.printf "%s: OK nlh-obs/1 (%d histograms)\n" path (List.length hists)

(* --- nlh-postmortem/1 bundles ---------------------------------------- *)

(* Shared between standalone bundle files and triage exemplars. *)
let check_bundle path what b =
  let sg = string (field "signature" b) in
  let parts = String.split_on_char '|' sg in
  if List.length parts <> 4 || List.exists (fun p -> p = "") parts then
    die "%s: %s: signature %S is not fault|target|cause|branch" path what sg;
  if string (field "outcome" b) = "" then die "%s: %s: empty outcome" path what;
  if string (field "repro" b) = "" then die "%s: %s: empty repro" path what;
  ignore (number (field "seed" b));
  List.iter
    (fun (k, v) ->
      match v with
      | String _ -> ()
      | _ -> die "%s: %s: config[%S] is not a string" path what k)
    (obj (field "config" b));
  let last_ns = ref neg_infinity in
  List.iteri
    (fun i e ->
      let ewhat = Printf.sprintf "%s.timeline[%d]" what i in
      if string (field "label" e) = "" then
        die "%s: %s: empty label" path ewhat;
      if string (field "event" e) = "" then
        die "%s: %s: empty event" path ewhat;
      let ns = number (field "ns" e) in
      if ns < !last_ns then die "%s: %s: timeline not monotone" path ewhat;
      last_ns := ns)
    (list (field "timeline" b));
  (match field "first_touch" b with
  | Null -> ()
  | ft ->
    ignore (string (field "name" ft));
    ignore (number (field "ns" ft)));
  List.iter
    (fun key ->
      List.iter
        (fun e ->
          ignore (string (field "name" e));
          ignore (number (field "ns" e)))
        (list (field key b)))
    [ "recovery_phases"; "hypercalls"; "journal_tail" ];
  ignore (int_map (field "ledger_diff" b))

let check_postmortem path root =
  check_bundle path "bundle" root;
  Printf.printf "%s: OK nlh-postmortem/1 (%s)\n" path
    (string (field "signature" root))

(* --- nlh-triage/1 ---------------------------------------------------- *)

let check_triage path root =
  let total = number (field "total" root) in
  let sigs = list (field "signatures" root) in
  let counted = ref 0.0 in
  let last_key = ref "" in
  List.iteri
    (fun i e ->
      let what = Printf.sprintf "signatures[%d]" i in
      let key = string (field "signature" e) in
      if key <= !last_key && i > 0 then
        die "%s: %s: keys not strictly key-sorted" path what;
      last_key := key;
      (* The flat fields must agree with the composite key. *)
      let recomposed =
        String.concat "|"
          [
            string (field "fault" e);
            string (field "target" e);
            string (field "cause" e);
            string (field "branch" e);
          ]
      in
      if recomposed <> key then
        die "%s: %s: fields %S disagree with key %S" path what recomposed key;
      let count = number (field "count" e) in
      if count < 1.0 then die "%s: %s: count < 1" path what;
      counted := !counted +. count;
      let seeds = List.map number (list (field "seeds" e)) in
      if seeds = [] then die "%s: %s: empty seed set" path what;
      let rec asc = function
        | a :: (b :: _ as r) ->
          if a >= b then die "%s: %s: seeds not ascending" path what;
          asc r
        | _ -> ()
      in
      asc seeds;
      match field "exemplar" e with
      | Null -> ()
      | b ->
        check_bundle path (what ^ ".exemplar") b;
        if string (field "signature" b) <> key then
          die "%s: %s: exemplar signature disagrees with key" path what)
    sigs;
  if !counted <> total then
    die "%s: signature counts sum to %g but total is %g" path !counted total;
  Printf.printf "%s: OK nlh-triage/1 (%d signatures, %g failures)\n" path
    (List.length sigs) total

(* --- nlh-checkpoint/1 ------------------------------------------------ *)

(* A checkpoint payload carries raw metrics aggregates (no derived
   quantiles), so the full nlh-obs/1 check does not apply: validate the
   counters/gauges maps and histogram raw-field invariants only. *)
let check_payload_metrics path what m =
  ignore (int_map (field "counters" m));
  ignore (int_map (field "gauges" m));
  List.iter
    (fun (name, h) ->
      let hwhat = Printf.sprintf "%s.histograms[%S]" what name in
      let bounds = list (field "bounds" h) in
      let counts =
        List.map
          (fun c ->
            let f = number c in
            if f < 0.0 then die "%s: %s: bad bucket count" path hwhat;
            f)
          (list (field "counts" h))
      in
      if List.length counts <> List.length bounds + 1 then
        die "%s: %s: %d counts for %d bounds (want bounds+1)" path hwhat
          (List.length counts) (List.length bounds);
      if List.fold_left ( +. ) 0.0 counts <> number (field "samples" h) then
        die "%s: %s: counts do not sum to samples" path hwhat)
    (obj (field "histograms" m))

let check_checkpoint path root =
  let kind = string (field "kind" root) in
  if kind <> "campaign" && kind <> "endurance" then
    die "%s: checkpoint kind %S is neither campaign nor endurance" path kind;
  if string (field "fingerprint" root) = "" then
    die "%s: empty fingerprint" path;
  let chunk = number (field "chunk" root) in
  if chunk < 1.0 then die "%s: chunk %g < 1" path chunk;
  let n_chunks = number (field "n_chunks" root) in
  let last = ref (-1.0) in
  let dones = list (field "done" root) in
  List.iter
    (fun v ->
      let i = number v in
      if i < 0.0 || i >= n_chunks then
        die "%s: done index %g outside [0, %g)" path i n_chunks;
      if i <= !last then die "%s: done indices not strictly ascending" path;
      last := i)
    dones;
  let payload = field "payload" root in
  ignore (obj payload);
  (if kind = "campaign" then begin
     let fanout = number (field "fanout" payload) in
     if fanout < 1.0 then die "%s: payload fanout %g < 1" path fanout;
     let t = field "totals" payload in
     let f k = number (field k t) in
     List.iter
       (fun k -> ignore (f k))
       [
         "runs"; "non_manifested"; "sdc"; "detected"; "successes"; "no_vmf";
         "recovered"; "latency_sum"; "latency_samples";
       ];
     if f "runs" <> f "non_manifested" +. f "sdc" +. f "detected" then
       die "%s: totals: runs <> non_manifested + sdc + detected" path;
     ignore (int_map (field "notes" t));
     check_payload_metrics path "totals.metrics" (field "metrics" t)
   end
   else begin
     let t = field "totals" payload in
     let f k = number (field k t) in
     List.iter
       (fun k -> ignore (f k))
       [
         "scenarios"; "survived"; "deaths"; "latent_scenarios";
         "max_leaked_pages"; "budget_violations";
       ];
     if f "scenarios" <> f "survived" +. f "deaths" then
       die "%s: totals: scenarios <> survived + deaths" path;
     List.iteri
       (fun i cv ->
         let what = Printf.sprintf "totals.per_cycle[%d]" i in
         let fields = list cv in
         if List.length fields <> 9 then
           die "%s: %s: expected 9 ints, got %d" path what
             (List.length fields);
         List.iter
           (fun x ->
             if number x < 0.0 then die "%s: %s: bad cycle field" path what)
           fields)
       (list (field "per_cycle" t));
     ignore (int_map (field "leaks" t));
     ignore (int_map (field "death_notes" t));
     check_payload_metrics path "totals.metrics" (field "metrics" t)
   end);
  Printf.printf "%s: OK nlh-checkpoint/1 (%s, %d/%g chunks done)\n" path kind
    (List.length dones) n_chunks

(* --- nlh-fuzz/1 ------------------------------------------------------ *)

(* A fuzz corpus/state file: the checkpoint envelope under the fuzz
   schema tag (kind "fuzz", done-rounds a prefix), with a payload
   holding the session identity (base_seed/rng as exact int64 strings),
   the accounting identity evaluated = kept + duds, the canonically
   sorted corpus entries and the sorted coverage map into them. *)
let check_fuzz path root =
  let kind = string (field "kind" root) in
  if kind <> "fuzz" then die "%s: fuzz checkpoint kind %S" path kind;
  if string (field "fingerprint" root) = "" then
    die "%s: empty fingerprint" path;
  if number (field "chunk" root) < 1.0 then die "%s: chunk < 1" path;
  let n_chunks = number (field "n_chunks" root) in
  let dones = list (field "done" root) in
  List.iteri
    (fun i v ->
      let f = number v in
      if f <> float_of_int i then
        die "%s: done rounds are not the prefix 0..%d" path
          (List.length dones - 1);
      if f >= n_chunks then die "%s: done index %g out of range" path f)
    dones;
  let payload = field "payload" root in
  let int64_str what key =
    let s = string (field key payload) in
    if Int64.of_string_opt s = None then
      die "%s: %s.%s %S is not an int64" path what key s
  in
  int64_str "payload" "base_seed";
  int64_str "payload" "rng";
  let evaluated = number (field "evaluated" payload) in
  let kept = number (field "kept" payload) in
  let dud = number (field "dud" payload) in
  if evaluated <> kept +. dud then
    die "%s: evaluated %g <> kept %g + duds %g" path evaluated kept dud;
  let entries = list (field "entries" payload) in
  let last_trace = ref None in
  List.iteri
    (fun i e ->
      let what = Printf.sprintf "entries[%d]" i in
      let trace =
        List.map
          (fun c ->
            let op = int c in
            if op < 0 || op >= Fuzz.Input.op_space then
              die "%s: %s: bad trace op code" path what;
            op)
          (list (field "trace" e))
      in
      if trace = [] then die "%s: %s: empty trace" path what;
      (match !last_trace with
      | Some prev when compare (List.length prev, prev) (List.length trace, trace) >= 0
        ->
        die "%s: %s: entries not in canonical (length, lex) order" path what
      | _ -> ());
      last_trace := Some trace;
      let seed = string (field "seed" e) in
      if Int64.of_string_opt seed = None then
        die "%s: %s: seed %S is not an int64" path what seed;
      if string (field "outcome" e) = "" then
        die "%s: %s: empty outcome" path what;
      let sg = string (field "signature" e) in
      if sg <> "" then begin
        let parts = String.split_on_char '|' sg in
        if List.length parts <> 4 || List.exists (fun p -> p = "") parts then
          die "%s: %s: signature %S is not fault|target|cause|branch" path what
            sg
      end)
    entries;
  let coverage = list (field "coverage" payload) in
  let last_point = ref "" in
  List.iteri
    (fun i c ->
      let what = Printf.sprintf "coverage[%d]" i in
      let point = string (field "point" c) in
      if point = "" then die "%s: %s: empty point" path what;
      if i > 0 && point <= !last_point then
        die "%s: %s: coverage points not strictly sorted" path what;
      last_point := point;
      let idx = number (field "entry" c) in
      if idx < 0.0 || idx >= float_of_int (List.length entries) then
        die "%s: %s: entry index %g out of range" path what idx)
    coverage;
  Printf.printf "%s: OK nlh-fuzz/1 (%d/%g rounds, %d entries, %d points)\n"
    path (List.length dones) n_chunks (List.length entries)
    (List.length coverage)

(* --- nlh-fleet/1 ----------------------------------------------------- *)

(* A fleet report: per-mechanism request-latency quantiles through a
   recovery event. Invariants: every mechanism name is known and appears
   once; request counts equal the histogram sample counts; stalled and
   SLO-violating requests cannot exceed the total; quantiles are
   ordered; mean recovery latency cannot exceed the max; each trial
   took exactly one consistency-scan path (incremental + full = trials);
   and, since every mechanism stops the world, the longest silence a
   tenant's sender saw is at least the longest stall and at most that
   stall plus one request interval on each side of it. *)
let check_fleet path root =
  let trials = number (field "trials" root) in
  if trials < 1.0 then die "%s: trials %g < 1" path trials;
  if number (field "tenants" root) < 1.0 then die "%s: tenants < 1" path;
  if number (field "slo_ns" root) <= 0.0 then die "%s: slo_ns <= 0" path;
  let interval = number (field "request_interval_ns" root) in
  if interval <= 0.0 then die "%s: request_interval_ns <= 0" path;
  let mechs = list (field "mechanisms" root) in
  if mechs = [] then die "%s: empty mechanisms array" path;
  let seen = ref [] in
  List.iteri
    (fun i m ->
      let what = Printf.sprintf "mechanisms[%d]" i in
      let name = string (field "mechanism" m) in
      if
        not (List.mem name (List.map Fleet.mechanism_name Fleet.all_mechanisms))
      then die "%s: %s: unknown mechanism %S" path what name;
      if List.mem name !seen then
        die "%s: %s: duplicate mechanism %S" path what name;
      seen := name :: !seen;
      let f k = number (field k m) in
      let requests = f "requests" in
      if requests < 1.0 then die "%s: %s: no requests" path what;
      if f "samples" <> requests then
        die "%s: %s: samples %g <> requests %g" path what (f "samples")
          requests;
      if f "stalled" > requests then
        die "%s: %s: stalled > requests" path what;
      if f "slo_violations" > requests then
        die "%s: %s: slo_violations > requests" path what;
      List.iter
        (fun k -> if f k < 0.0 then die "%s: %s: negative %s" path what k)
        [ "stalled"; "slo_violations"; "tenants_failed"; "net_lost" ];
      let p50 = f "request_p50_ns"
      and p99 = f "request_p99_ns"
      and p999 = f "request_p999_ns" in
      if not (0.0 < p50 && p50 <= p99 && p99 <= p999) then
        die "%s: %s: request quantiles not ordered (%g %g %g)" path what p50
          p99 p999;
      if f "recovery_ns_mean" > f "recovery_ns_max" then
        die "%s: %s: recovery mean exceeds max" path what;
      if f "recovery_ns_mean" <= 0.0 then
        die "%s: %s: non-positive recovery latency" path what;
      if f "scan_incremental" +. f "scan_full" <> trials then
        die "%s: %s: scan_incremental %g + scan_full %g <> trials %g" path
          what (f "scan_incremental") (f "scan_full") trials;
      let rec_max = f "recovery_ns_max" and gap = f "max_gap_ns" in
      if not (rec_max <= gap && gap <= rec_max +. (2.0 *. interval)) then
        die "%s: %s: max_gap_ns %g outside [%g, %g] (recovery max + 2 x %g)"
          path what gap rec_max (rec_max +. (2.0 *. interval)) interval)
    mechs;
  Printf.printf "%s: OK nlh-fleet/1 (%d mechanisms, %g trials each)\n" path
    (List.length mechs) trials

(* --- Dispatch -------------------------------------------------------- *)

(* Accessor failures ({!Obs.Json.Invalid}: a missing member or a wrong
   type) are reported against the file, like every other violation. *)
let check_file path =
  match read_file path with
  | Error e -> die "%s" e
  | Ok root -> (
    try
      match (member "traceEvents" root, member "schema" root) with
      | Some v, _ -> check_chrome path (list v)
      | None, Some (String "nlh-obs/1") -> check_metrics path root
      | None, Some (String "nlh-triage/1") -> check_triage path root
      | None, Some (String "nlh-postmortem/1") -> check_postmortem path root
      | None, Some (String "nlh-checkpoint/1") -> check_checkpoint path root
      | None, Some (String "nlh-fuzz/1") -> check_fuzz path root
      | None, Some (String "nlh-fleet/1") -> check_fleet path root
      | None, Some (String s) -> die "%s: unknown schema %S" path s
      | None, _ -> die "%s: neither a Chrome trace nor a schema document" path
    with Invalid msg -> die "%s: %s" path msg)

let () =
  if Array.length Sys.argv < 2 then die "usage: nlh_trace_check FILE.json...";
  for i = 1 to Array.length Sys.argv - 1 do
    check_file Sys.argv.(i)
  done
