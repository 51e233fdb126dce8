(** Exporters: Chrome-trace JSON (loadable in Perfetto / chrome://tracing)
    for a single run's events and spans, and a plain metrics-JSON document
    ([OBS_campaign.json]) for campaign-level snapshots.

    Both build a {!Json.t} and leave the syntax to {!Json.to_string};
    timestamps are simulated nanoseconds converted to the microseconds
    Chrome-trace expects. Output is deterministic: events and spans are
    emitted in timestamp order with a stable tie-break, and metrics come
    from the canonically sorted {!Metrics.snapshot}. *)

let us_of_ns ns = Json.Number (float_of_int ns /. 1000.0)

(* An event's typed arguments ({!Event.args}) as a JSON object. *)
let args_json args =
  Json.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | `Int i -> Json.of_int i
           | `Bool b -> Json.Bool b
           | `String s -> Json.String s ))
       args)

(* Chrome-trace rows: a span becomes a complete event ("ph" X), a trace
   event becomes a thread-scoped instant ("ph" i). *)
type row = Span_row of Span.span | Event_row of Event.t

let row_time = function
  | Span_row s -> s.Span.start
  | Event_row e -> e.Event.time

let span_row (s : Span.span) =
  Json.(
    Obj
      [
        ("ph", String "X");
        ("name", String s.name);
        ("cat", String s.cat);
        ("ts", us_of_ns s.start);
        ("dur", us_of_ns s.duration);
        ("pid", of_int 0);
        ("tid", of_int (max 0 s.track));
        ("args", args_json [ ("duration_ns", `Int s.duration) ]);
      ])

let event_row (e : Event.t) =
  Json.(
    Obj
      [
        ("ph", String "i");
        ("s", String "t");
        ("name", String (Event.name e.payload));
        ("cat", String (Event.subsystem_name (Event.subsystem e.payload)));
        ("ts", us_of_ns e.time);
        ("pid", of_int 0);
        ("tid", of_int (max 0 e.cpu));
        ( "args",
          args_json
            (("level", `String (Event.level_name e.level))
            :: ("domid", `Int e.domid)
            :: Event.args e.payload) );
      ])

let chrome_trace ~events ~spans =
  let rows =
    List.map (fun e -> Event_row e) events
    @ List.map (fun s -> Span_row s) spans
  in
  (* Stable: rows with equal timestamps keep events-then-spans order. *)
  let rows =
    List.stable_sort (fun a b -> compare (row_time a) (row_time b)) rows
  in
  Json.(
    Obj
      [
        ( "traceEvents",
          List
            (List.map
               (function Span_row s -> span_row s | Event_row e -> event_row e)
               rows) );
        ("displayTimeUnit", String "ms");
      ])

let chrome_trace_of_recorder (r : Recorder.t) =
  chrome_trace
    ~events:(Trace.to_list r.Recorder.trace)
    ~spans:(Span.to_list r.Recorder.spans)

let write_chrome_trace path (r : Recorder.t) =
  Json.write_file path (chrome_trace_of_recorder r)

(* --- Metrics JSON (OBS_campaign.json) ------------------------------ *)

let int_list l = Json.List (List.map Json.of_int l)

(** The snapshot's members: [counters] and [gauges] as name -> int maps,
    [histograms] as name -> {bounds, counts, sum, samples}, where
    [counts] has one trailing overflow bucket beyond [bounds]. A
    checkpoint stores exactly these raw aggregates; [quantiles] adds each
    non-empty histogram's bucket-resolution p50/p99/p999 (see
    {!Metrics.quantile}), which nlh-obs/1 reports. *)
let snapshot_fields ?(quantiles = false) (s : Metrics.snapshot) =
  let hist (h : Metrics.hist_snapshot) =
    let q =
      match (Metrics.p50 h, Metrics.p99 h, Metrics.p999 h) with
      | Some p50, Some p99, Some p999 when quantiles ->
        Json.[ ("p50", of_int p50); ("p99", of_int p99); ("p999", of_int p999) ]
      | _ -> []
    in
    Json.(
      Obj
        ([
           ("bounds", int_list h.Metrics.h_bounds);
           ("counts", int_list h.Metrics.h_counts);
           ("sum", of_int h.Metrics.h_sum);
           ("samples", of_int h.Metrics.h_samples);
         ]
        @ q))
  in
  Json.
    [
      ("counters", of_int_map s.Metrics.counters);
      ("gauges", of_int_map s.Metrics.gauges);
      ( "histograms",
        Obj (List.map (fun (name, h) -> (name, hist h)) s.Metrics.histograms) );
    ]

(** [metrics_json ~meta snapshot] is the campaign metrics document:
    {v
    { "schema": "nlh-obs/1",
      "meta": { ... caller-supplied values ... },
      "counters": ..., "gauges": ..., "histograms": ... }
    v}
    with the members of {!snapshot_fields}, quantiles included. *)
let metrics_json ?(meta = []) s =
  Json.Obj
    ((("schema", Json.String "nlh-obs/1") :: ("meta", Json.Obj meta)
     :: snapshot_fields ~quantiles:true s))

let write_metrics_json ?meta path s = Json.write_file path (metrics_json ?meta s)
