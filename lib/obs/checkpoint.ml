(** Checkpoint files for resumable soak campaigns (schema nlh-checkpoint/1).

    A checkpoint records the progress of a chunked campaign: which chunks
    of the work range have been fully aggregated (a completed-chunk
    bitmap), the merged aggregate so far (an opaque {!Json.t} [payload]
    owned by the campaign kind), and enough configuration identity (the
    [fingerprint]) that a resume can refuse a checkpoint written for a
    different campaign. The file is rewritten atomically (tmp + rename),
    so a kill mid-write leaves the previous consistent checkpoint in
    place.

    The envelope is deliberately generic -- [lib/obs] knows nothing about
    injection campaigns. One chunk engine, {!Inject.Pool.run_chunks},
    writes and resumes these files for both kinds; {!Inject.Campaign}
    and {!Endure} only supply the codec of their aggregate [payload].
    {!metrics_of_json} at the bottom reads back the one aggregate
    component they share, a {!Metrics.snapshot} written with
    {!Export.snapshot_fields}. *)

let schema = "nlh-checkpoint/1"

(* The fuzzer reuses the same envelope (fingerprint identity, done
   bitmap, atomic write, opaque payload) under its own schema tag: a
   corpus/state file is a checkpoint whose payload happens to hold the
   corpus. The [?schema] parameters below default to the classic tag so
   existing campaign/endurance files are untouched. *)
let fuzz_schema = "nlh-fuzz/1"

type header = {
  kind : string; (* "campaign" | "endurance" *)
  fingerprint : string; (* config/seed identity; resume requires equality *)
  chunk : int; (* work items per chunk *)
  n_chunks : int;
  done_chunks : bool array; (* length [n_chunks] *)
}

let done_count h =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 h.done_chunks

let complete h = done_count h = h.n_chunks

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The done bitmap is written as the ascending list of completed chunk
   indices: sparse early in a campaign, and self-validating (the reader
   rejects out-of-order or duplicate indices). *)
let to_json ?(schema = schema) h ~payload =
  let done_indices =
    List.filter (fun i -> h.done_chunks.(i)) (List.init h.n_chunks Fun.id)
  in
  Json.(
    Obj
      [
        ("schema", String schema);
        ("kind", String h.kind);
        ("fingerprint", String h.fingerprint);
        ("chunk", of_int h.chunk);
        ("n_chunks", of_int h.n_chunks);
        ("done", List (List.map of_int done_indices));
        ("payload", payload);
      ])

let write ?schema ~path h ~payload =
  let tmp = path ^ ".tmp" in
  Json.write_file tmp (to_json ?schema h ~payload);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Reader / validator                                                  *)
(* ------------------------------------------------------------------ *)

let of_json ?(schema = schema) root =
  let open Json in
  (match member "schema" root with
  | Some (String s) when s = schema -> ()
  | Some (String s) -> fail "schema %S is not %S" s schema
  | _ -> fail "missing schema");
  let kind = string (field "kind" root) in
  let fingerprint = string (field "fingerprint" root) in
  if fingerprint = "" then fail "empty fingerprint";
  let chunk = int (field "chunk" root) in
  if chunk < 1 then fail "chunk %d < 1" chunk;
  let n_chunks = int (field "n_chunks" root) in
  if n_chunks < 0 then fail "n_chunks %d < 0" n_chunks;
  let done_chunks = Array.make n_chunks false in
  let last = ref (-1) in
  List.iter
    (fun v ->
      let i = int v in
      if i < 0 || i >= n_chunks then
        fail "done index %d outside [0, %d)" i n_chunks;
      if i <= !last then fail "done indices not strictly ascending";
      last := i;
      done_chunks.(i) <- true)
    (list (field "done" root));
  let payload = field "payload" root in
  ignore (obj payload);
  ({ kind; fingerprint; chunk; n_chunks; done_chunks }, payload)

let read ?schema path =
  match Json.read_file path with
  | Error e -> Error e
  | Ok root -> ( try Ok (of_json ?schema root) with Json.Invalid msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Metrics-snapshot round trip                                         *)
(* ------------------------------------------------------------------ *)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Reads back {!Export.snapshot_fields}; quantile members, which only
   nlh-obs/1 documents carry, are ignored, so the round trip is exact.
   Also the validator of both formats' histograms: bounds strictly
   increase, and the non-negative bucket counts (one more than the
   bounds) sum to [samples]. Raises {!Json.Invalid}: callers sit inside
   a payload reader and convert to [Error] at its edge. *)
let metrics_of_json v : Metrics.snapshot =
  let open Json in
  let ints v = List.map int (list v) in
  let histograms =
    List.map
      (fun (name, h) ->
        let bad fmt = Printf.ksprintf (fail "histograms[%S]: %s" name) fmt in
        let bounds = ints (field "bounds" h) in
        let counts = ints (field "counts" h) in
        let samples = int (field "samples" h) in
        if List.length counts <> List.length bounds + 1 then
          bad "%d counts for %d bounds (want bounds+1)" (List.length counts)
            (List.length bounds);
        if List.exists (fun c -> c < 0) counts then bad "negative bucket count";
        if List.fold_left ( + ) 0 counts <> samples then
          bad "counts do not sum to samples";
        let rec increasing = function
          | a :: (b :: _ as r) -> a < b && increasing r
          | _ -> true
        in
        if not (increasing bounds) then bad "bounds not strictly increasing";
        ( name,
          {
            Metrics.h_bounds = bounds;
            h_counts = counts;
            h_sum = int (field "sum" h);
            h_samples = samples;
          } ))
      (obj (field "histograms" v))
  in
  {
    Metrics.counters = by_name (int_map (field "counters" v));
    gauges = by_name (int_map (field "gauges" v));
    histograms = by_name histograms;
  }
