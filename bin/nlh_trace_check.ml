(* Validate exported observability artifacts: well-formed JSON plus
   per-schema structural checks. Dispatches on document shape:

   - Chrome-trace timelines (a "traceEvents" array): rows all carry
     name/ph/ts and timestamps are globally non-decreasing.
   - "nlh-obs/1" metrics documents: read by the checkpoint metrics
     reader (integer maps, well-formed histograms), plus ordered
     quantile estimates present exactly on non-empty histograms.
   - "nlh-triage/1" triage documents: per-signature entries whose counts
     sum to the total, ascending seed sets, and well-formed exemplars.
   - "nlh-postmortem/1" bundles: signature grammar, timeline and
     flight-tail shape, monotone timeline timestamps.
   - "nlh-checkpoint/1" campaign and endurance checkpoints, and
     "nlh-fuzz/1" corpus files: read by the same library readers a
     resume uses, so a file passes here iff a resume would accept it
     (its identity against a config aside).
   - "nlh-endurance/1" endurance reports: typed members, survived +
     died = scenarios, an ascending survival curve of fractions.
   - "nlh-fleet/1" fleet reports: known mechanisms appearing once each,
     request counts matching histogram samples, ordered latency
     quantiles, per-trial scan-path accounting, and a longest silence
     gap that is the recovery stall plus at most two request intervals.

   Accepts any number of files; used by the @check alias as the
   export smoke test. Every violation is an {!Obs.Json.Invalid}, reported
   as "FILE: PATH: message" with exit 1. *)

open Obs.Json

let within what f x = try f x with Invalid m -> fail "%s: %s" what m

(* [f i x] on each element; a failure names the element, what[i]. *)
let each what l f =
  List.iteri (fun i x -> within (Printf.sprintf "%s[%d]" what i) (f i) x) l

(* --- Chrome-trace ---------------------------------------------------- *)

let check_chrome events =
  let spans = ref 0 and instants = ref 0 in
  let last_ts = ref neg_infinity in
  each "traceEvents" events (fun _ row ->
      if string (field "name" row) = "" then fail "empty name";
      let ts = number (field "ts" row) in
      if ts < 0.0 then fail "negative ts";
      if ts < !last_ts then
        fail "ts %.3f < previous %.3f (not monotone)" ts !last_ts;
      last_ts := ts;
      match string (field "ph" row) with
      | "X" ->
        if number (field "dur" row) < 0.0 then fail "negative dur";
        incr spans
      | "i" -> incr instants
      | ph -> fail "unexpected ph %S" ph);
  Printf.sprintf "chrome-trace (%d rows: %d spans, %d instants)"
    (List.length events) !spans !instants

(* --- nlh-obs/1 ------------------------------------------------------- *)

let check_metrics root =
  let m = Obs.Checkpoint.metrics_of_json root in
  List.iter
    (fun (name, h) ->
      within (Printf.sprintf "histograms[%S]" name)
        (fun h ->
          (* Quantiles: present together iff the histogram is non-empty,
             and necessarily ordered. *)
          let samples = int (field "samples" h) in
          let q key = Option.map number (member key h) in
          match (q "p50", q "p99", q "p999") with
          | Some p50, Some p99, Some p999 ->
            if samples <= 0 then fail "quantiles on an empty histogram";
            if not (p50 <= p99 && p99 <= p999) then
              fail "quantiles not ordered (p50 %g p99 %g p999 %g)" p50 p99 p999
          | None, None, None ->
            if samples > 0 then fail "non-empty histogram missing quantiles"
          | _ -> fail "partial quantile set")
        h)
    (obj (field "histograms" root));
  Printf.sprintf "nlh-obs/1 (%d histograms)"
    (List.length m.Obs.Metrics.histograms)

(* --- nlh-postmortem/1 bundles ---------------------------------------- *)

(* Shared between standalone bundle files and triage exemplars. *)
let check_bundle b =
  let sg = string (field "signature" b) in
  if Obs.Signature.of_key sg = None then
    fail "signature %S is not fault|target|cause|branch" sg;
  if string (field "outcome" b) = "" then fail "empty outcome";
  if string (field "repro" b) = "" then fail "empty repro";
  ignore (number (field "seed" b));
  List.iter
    (fun (k, v) ->
      match v with
      | String _ -> ()
      | _ -> fail "config[%S] is not a string" k)
    (obj (field "config" b));
  let last_ns = ref neg_infinity in
  each "timeline" (list (field "timeline" b)) (fun _ e ->
      if string (field "label" e) = "" then fail "empty label";
      if string (field "event" e) = "" then fail "empty event";
      let ns = number (field "ns" e) in
      if ns < !last_ns then fail "timeline not monotone";
      last_ns := ns);
  (match field "first_touch" b with
  | Null -> ()
  | ft ->
    ignore (string (field "name" ft));
    ignore (number (field "ns" ft)));
  List.iter
    (fun key ->
      each key (list (field key b)) (fun _ e ->
          ignore (string (field "name" e));
          ignore (number (field "ns" e))))
    [ "recovery_phases"; "hypercalls"; "journal_tail" ];
  ignore (int_map (field "ledger_diff" b))

let check_postmortem root =
  within "bundle" check_bundle root;
  Printf.sprintf "nlh-postmortem/1 (%s)" (string (field "signature" root))

(* --- nlh-triage/1 ---------------------------------------------------- *)

let check_triage root =
  let total = number (field "total" root) in
  let sigs = list (field "signatures" root) in
  let counted = ref 0.0 in
  let last_key = ref "" in
  each "signatures" sigs (fun i e ->
      let key = string (field "signature" e) in
      if key <= !last_key && i > 0 then fail "keys not strictly key-sorted";
      last_key := key;
      (* The flat fields must agree with the composite key. *)
      let recomposed =
        String.concat "|"
          (List.map
             (fun k -> string (field k e))
             [ "fault"; "target"; "cause"; "branch" ])
      in
      if recomposed <> key then
        fail "fields %S disagree with key %S" recomposed key;
      let count = number (field "count" e) in
      if count < 1.0 then fail "count < 1";
      counted := !counted +. count;
      let seeds = List.map number (list (field "seeds" e)) in
      if seeds = [] then fail "empty seed set";
      let rec asc = function
        | a :: (b :: _ as r) ->
          if a >= b then fail "seeds not ascending";
          asc r
        | _ -> ()
      in
      asc seeds;
      match field "exemplar" e with
      | Null -> ()
      | b ->
        within "exemplar" check_bundle b;
        if string (field "signature" b) <> key then
          fail "exemplar signature disagrees with key");
  if !counted <> total then
    fail "signature counts sum to %g but total is %g" !counted total;
  Printf.sprintf "nlh-triage/1 (%d signatures, %g failures)" (List.length sigs)
    total

(* --- nlh-checkpoint/1 and nlh-fuzz/1 --------------------------------- *)

let ok_or_fail = function Ok _ -> () | Error m -> fail "%s" m

(* The envelope, then the payload, through the readers a resume uses.
   An endurance payload is read at its own cycle count. *)
let check_checkpoint root =
  let h, payload = Obs.Checkpoint.of_json root in
  (match h.Obs.Checkpoint.kind with
  | "campaign" -> ok_or_fail (Inject.Campaign.totals_of_payload payload)
  | "endurance" ->
    let cycles =
      within "payload"
        (fun p -> List.length (list (field "per_cycle" (field "totals" p))))
        payload
    in
    ok_or_fail (Endure.totals_of_payload ~cycles payload)
  | kind -> fail "checkpoint kind %S is neither campaign nor endurance" kind);
  Printf.sprintf "nlh-checkpoint/1 (%s, %d/%d chunks done)"
    h.Obs.Checkpoint.kind
    (Obs.Checkpoint.done_count h)
    h.Obs.Checkpoint.n_chunks

(* The session config only matters to a resume's identity check. *)
let check_fuzz root =
  let h, payload =
    Obs.Checkpoint.of_json ~schema:Obs.Checkpoint.fuzz_schema root
  in
  let t = Fuzz.Session.create (Fuzz.Session.default_config ~base_seed:0L) in
  Fuzz.Session.restore t h payload;
  let corpus = t.Fuzz.Session.s_corpus in
  Printf.sprintf "nlh-fuzz/1 (%d/%d rounds, %d entries, %d points)"
    t.Fuzz.Session.s_rounds h.Obs.Checkpoint.n_chunks
    (List.length (Fuzz.Corpus.entries corpus))
    (Fuzz.Corpus.n_points corpus)

(* --- nlh-endurance/1 ------------------------------------------------- *)

(* An endurance report: integer totals with survived + died = scenarios
   and no negative budget violations, a per-resource leak map, and a
   survival curve ascending by cycle whose survival and clean-recovery
   rates are fractions. *)
let check_endurance root =
  let i k = int (field k root) in
  let scenarios = i "scenarios" and survived = i "survived" in
  let died = i "died" in
  List.iter
    (fun k -> ignore (i k))
    [ "cycles"; "jobs"; "cores"; "latent_scenarios";
      "max_leaked_pages_per_recovery" ];
  List.iter
    (fun k -> ignore (number (field k root)))
    [ "seconds"; "minor_words"; "minor_words_per_scenario" ];
  if survived + died <> scenarios then
    fail "survived %d + died %d <> scenarios %d" survived died scenarios;
  if i "budget_violations" < 0 then fail "negative budget_violations";
  ignore (int_map (field "leaks_by_resource" root));
  let curve = list (field "curve" root) in
  let last = ref (-1) in
  each "curve" curve (fun _ c ->
      let cycle = int (field "cycle" c) in
      if cycle <= !last then fail "cycle %d does not ascend" cycle;
      last := cycle;
      List.iter
        (fun k -> ignore (int (field k c)))
        [ "entered"; "quiet"; "recovered"; "latent"; "died"; "leaked_pages" ];
      List.iter
        (fun k ->
          let x = number (field k c) in
          if not (0.0 <= x && x <= 1.0) then fail "%s %g outside [0, 1]" k x)
        [ "survival"; "clean_rate" ]);
  Printf.sprintf "nlh-endurance/1 (%d scenarios, %d survived, %d curve points)"
    scenarios survived (List.length curve)

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
let check_fleet root =
  let trials = number (field "trials" root) in
  if trials < 1.0 then fail "trials %g < 1" trials;
  if number (field "tenants" root) < 1.0 then fail "tenants < 1";
  if number (field "slo_ns" root) <= 0.0 then fail "slo_ns <= 0";
  let interval = number (field "request_interval_ns" root) in
  if interval <= 0.0 then fail "request_interval_ns <= 0";
  let mechs = list (field "mechanisms" root) in
  if mechs = [] then fail "empty mechanisms array";
  let seen = ref [] in
  each "mechanisms" mechs (fun _ m ->
      let name = string (field "mechanism" m) in
      if
        not (List.mem name (List.map Fleet.mechanism_name Fleet.all_mechanisms))
      then fail "unknown mechanism %S" name;
      if List.mem name !seen then fail "duplicate mechanism %S" name;
      seen := name :: !seen;
      let f k = number (field k m) in
      let requests = f "requests" in
      if requests < 1.0 then fail "no requests";
      if f "samples" <> requests then
        fail "samples %g <> requests %g" (f "samples") requests;
      if f "stalled" > requests then fail "stalled > requests";
      if f "slo_violations" > requests then fail "slo_violations > requests";
      List.iter
        (fun k -> if f k < 0.0 then fail "negative %s" k)
        [ "stalled"; "slo_violations"; "tenants_failed"; "net_lost" ];
      let p50 = f "request_p50_ns"
      and p99 = f "request_p99_ns"
      and p999 = f "request_p999_ns" in
      if not (0.0 < p50 && p50 <= p99 && p99 <= p999) then
        fail "request quantiles not ordered (%g %g %g)" p50 p99 p999;
      if f "recovery_ns_mean" > f "recovery_ns_max" then
        fail "recovery mean exceeds max";
      if f "recovery_ns_mean" <= 0.0 then fail "non-positive recovery latency";
      if f "scan_incremental" +. f "scan_full" <> trials then
        fail "scan_incremental %g + scan_full %g <> trials %g"
          (f "scan_incremental") (f "scan_full") trials;
      let rec_max = f "recovery_ns_max" and gap = f "max_gap_ns" in
      if not (rec_max <= gap && gap <= rec_max +. (2.0 *. interval)) then
        fail "max_gap_ns %g outside [%g, %g] (recovery max + 2 x %g)" gap
          rec_max
          (rec_max +. (2.0 *. interval))
          interval);
  Printf.sprintf "nlh-fleet/1 (%d mechanisms, %g trials each)"
    (List.length mechs) trials

(* --- Dispatch -------------------------------------------------------- *)

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let check_root path root =
  match (member "traceEvents" root, member "schema" root) with
  | Some v, _ -> check_chrome (list v)
  | None, Some (String "nlh-obs/1") -> check_metrics root
  | None, Some (String "nlh-triage/1") -> check_triage root
  | None, Some (String "nlh-postmortem/1") -> check_postmortem root
  | None, Some (String "nlh-checkpoint/1") -> check_checkpoint root
  | None, Some (String "nlh-fuzz/1") -> check_fuzz root
  | None, Some (String "nlh-endurance/1") -> check_endurance root
  | None, Some (String "nlh-fleet/1") -> check_fleet root
  | None, Some (String s) -> die "%s: unknown schema %S" path s
  | None, _ -> die "%s: neither a Chrome trace nor a schema document" path

let check_file path =
  match read_file path with
  | Error e -> die "%s" e
  | Ok root -> (
    match check_root path root with
    | summary -> Printf.printf "%s: OK %s\n" path summary
    | exception Invalid msg -> die "%s: %s" path msg)

let () =
  if Array.length Sys.argv < 2 then die "usage: nlh_trace_check FILE.json...";
  for i = 1 to Array.length Sys.argv - 1 do
    check_file Sys.argv.(i)
  done
