let attr_json : Trace.attr -> Json.t = function
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.String s -> Json.String s
  | Trace.Bool b -> Json.Bool b

let attrs_json attrs =
  Json.Assoc (List.map (fun (k, v) -> (k, attr_json v)) attrs)

let summaries (snapshot : Snapshot.t) =
  List.map
    (fun (k, st) -> (k, Metrics_registry.summary_of_state st))
    snapshot.Snapshot.histograms

let summary_fields (s : Metrics_registry.summary) =
  [
    ("count", Json.Int s.Metrics_registry.count);
    ("sum", Json.Float s.Metrics_registry.sum);
    ("min", Json.Float s.Metrics_registry.min);
    ("max", Json.Float s.Metrics_registry.max);
    ("mean", Json.Float s.Metrics_registry.mean);
    ("p50", Json.Float s.Metrics_registry.p50);
    ("p90", Json.Float s.Metrics_registry.p90);
    ("p99", Json.Float s.Metrics_registry.p99);
  ]

(* --- report: aggregated span tree --- *)

let report (snapshot : Snapshot.t) =
  let buf = Buffer.create 1024 in
  let by_parent : (int, Trace.event list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      let siblings =
        Option.value ~default:[] (Hashtbl.find_opt by_parent ev.Trace.parent)
      in
      Hashtbl.replace by_parent ev.Trace.parent (ev :: siblings))
    snapshot.Snapshot.spans;
  let children parent_ids =
    List.concat_map
      (fun id ->
        List.rev (Option.value ~default:[] (Hashtbl.find_opt by_parent id)))
      parent_ids
  in
  (* Group a sibling list by name, preserving first-appearance order, so
     repeated phases aggregate into one line per level. *)
  let group_by_name evs =
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (ev : Trace.event) ->
        match Hashtbl.find_opt tbl ev.Trace.name with
        | Some group -> group := ev :: !group
        | None ->
          Hashtbl.replace tbl ev.Trace.name (ref [ ev ]);
          order := ev.Trace.name :: !order)
      evs;
    List.rev_map
      (fun name -> (name, List.rev !(Hashtbl.find tbl name)))
      !order
  in
  let rec render indent evs =
    List.iter
      (fun (name, group) ->
        let count = List.length group in
        let wall =
          List.fold_left (fun a (e : Trace.event) -> a +. e.Trace.dur_wall) 0.0 group
        in
        let cpu =
          List.fold_left (fun a (e : Trace.event) -> a +. e.Trace.dur_cpu) 0.0 group
        in
        Printf.bprintf buf "  %s%-*s %6d  %10.6f  %10.6f\n"
          (String.make (2 * indent) ' ')
          (max 1 (44 - (2 * indent)))
          name count wall cpu;
        render (indent + 1)
          (children (List.map (fun (e : Trace.event) -> e.Trace.id) group)))
      (group_by_name evs)
  in
  Buffer.add_string buf "== qaoa_obs report ==\n";
  Printf.bprintf buf "spans%s (name, count, wall s, cpu s):\n"
    (match snapshot.Snapshot.dropped_spans with
    | 0 -> ""
    | d -> Printf.sprintf " [%d dropped past buffer cap]" d);
  render 0 (List.rev (Option.value ~default:[] (Hashtbl.find_opt by_parent (-1))));
  (match snapshot.Snapshot.counters with
  | [] -> ()
  | cs ->
    Buffer.add_string buf "counters:\n";
    List.iter (fun (k, v) -> Printf.bprintf buf "  %-46s %10d\n" k v) cs);
  (match summaries snapshot with
  | [] -> ()
  | hs ->
    Buffer.add_string buf
      "histograms (name, count, mean, p50, p90, p99, max):\n";
    List.iter
      (fun (k, (s : Metrics_registry.summary)) ->
        Printf.bprintf buf "  %-38s %8d %9.3f %9.3f %9.3f %9.3f %9.3f\n" k
          s.Metrics_registry.count s.Metrics_registry.mean
          s.Metrics_registry.p50 s.Metrics_registry.p90 s.Metrics_registry.p99
          s.Metrics_registry.max)
      hs);
  Buffer.contents buf

(* --- jsonl --- *)

let span_json (ev : Trace.event) =
  Json.Assoc
    [
      ("type", Json.String "span");
      ("name", Json.String ev.Trace.name);
      ("id", Json.Int ev.Trace.id);
      ("parent", Json.Int ev.Trace.parent);
      ("depth", Json.Int ev.Trace.depth);
      ("domain", Json.Int ev.Trace.domain);
      ("ts_s", Json.Float (ev.Trace.start_wall -. Config.epoch));
      ("dur_wall_s", Json.Float ev.Trace.dur_wall);
      ("dur_cpu_s", Json.Float ev.Trace.dur_cpu);
      ("attrs", attrs_json ev.Trace.attrs);
    ]

let counter_json (name, value) =
  Json.Assoc
    [
      ("type", Json.String "counter");
      ("name", Json.String name);
      ("value", Json.Int value);
    ]

let histogram_json (name, s) =
  Json.Assoc
    (("type", Json.String "histogram") :: ("name", Json.String name)
    :: summary_fields s)

let jsonl (snapshot : Snapshot.t) =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  List.iter (fun ev -> line (span_json ev)) snapshot.Snapshot.spans;
  List.iter (fun c -> line (counter_json c)) snapshot.Snapshot.counters;
  List.iter (fun h -> line (histogram_json h)) (summaries snapshot);
  Buffer.contents buf

(* --- chrome trace_event --- *)

(* Each OCaml domain maps to a Chrome "thread": spans carry their
   domain id as tid, and a thread_name metadata event labels each lane
   so multi-domain traces render as parallel tracks in Perfetto. *)
let chrome_event (ev : Trace.event) =
  Json.Assoc
    [
      ("name", Json.String ev.Trace.name);
      ("cat", Json.String "qaoa");
      ("ph", Json.String "X");
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.Trace.domain);
      ("ts", Json.Float ((ev.Trace.start_wall -. Config.epoch) *. 1e6));
      ("dur", Json.Float (ev.Trace.dur_wall *. 1e6));
      ( "args",
        attrs_json
          (("dur_cpu_s", Trace.Float ev.Trace.dur_cpu) :: ev.Trace.attrs) );
    ]

let chrome_thread_names events =
  let domains =
    List.sort_uniq compare
      (List.map (fun (ev : Trace.event) -> ev.Trace.domain) events)
  in
  List.map
    (fun d ->
      Json.Assoc
        [
          ("name", Json.String "thread_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int d);
          ( "args",
            Json.Assoc [ ("name", Json.String (Printf.sprintf "domain-%d" d)) ]
          );
        ])
    domains

let chrome (snapshot : Snapshot.t) =
  let events = snapshot.Snapshot.spans in
  Json.Assoc
    [
      ( "traceEvents",
        Json.List (chrome_thread_names events @ List.map chrome_event events)
      );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ( "counters",
              Json.Assoc
                (List.map
                   (fun (k, v) -> (k, Json.Int v))
                   snapshot.Snapshot.counters) );
            ( "histograms",
              Json.Assoc
                (List.map
                   (fun (k, s) -> (k, Json.Assoc (summary_fields s)))
                   (summaries snapshot)) );
            ("dropped_spans", Json.Int snapshot.Snapshot.dropped_spans);
          ] );
    ]

(* --- folded stacks ---

   One line per distinct span path, "root;child;leaf <self-time-us>",
   the input format of flamegraph.pl and speedscope.  Self time is a
   span's wall duration minus the wall duration of its direct children,
   clamped at zero (children can slightly overshoot their parent through
   clock granularity); paths whose self time rounds to 0 µs are
   omitted. *)

let folded (snapshot : Snapshot.t) =
  let spans = snapshot.Snapshot.spans in
  let by_id : (int, Trace.event) Hashtbl.t = Hashtbl.create 256 in
  let child_wall : (int, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (ev : Trace.event) -> Hashtbl.replace by_id ev.Trace.id ev)
    spans;
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.parent >= 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt child_wall ev.Trace.parent)
        in
        Hashtbl.replace child_wall ev.Trace.parent (prev +. ev.Trace.dur_wall))
    spans;
  let multi_domain =
    match spans with
    | [] -> false
    | ev :: rest ->
      List.exists (fun (e : Trace.event) -> e.Trace.domain <> ev.Trace.domain) rest
  in
  let rec path (ev : Trace.event) acc =
    let acc = ev.Trace.name :: acc in
    match Hashtbl.find_opt by_id ev.Trace.parent with
    | Some parent -> path parent acc
    | None ->
      (* Multi-domain streams get one synthetic root frame per domain so
         per-domain flames stay separable. *)
      if multi_domain then Printf.sprintf "domain-%d" ev.Trace.domain :: acc
      else acc
  in
  let totals : (string, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (ev : Trace.event) ->
      let self =
        Float.max 0.0
          (ev.Trace.dur_wall
          -. Option.value ~default:0.0 (Hashtbl.find_opt child_wall ev.Trace.id))
      in
      let stack = String.concat ";" (path ev []) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals stack) in
      Hashtbl.replace totals stack (prev +. self))
    spans;
  let buf = Buffer.create 1024 in
  Hashtbl.fold (fun stack self acc -> (stack, self) :: acc) totals []
  |> List.sort compare
  |> List.iter (fun (stack, self_s) ->
         let us = int_of_float (Float.round (self_s *. 1e6)) in
         if us > 0 then Printf.bprintf buf "%s %d\n" stack us);
  Buffer.contents buf

(* --- per-name span roll-up, shared by prometheus and json --- *)

let span_rollup (snapshot : Snapshot.t) =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      let n, w, c =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl ev.Trace.name)
      in
      Hashtbl.replace tbl ev.Trace.name
        (n + 1, w +. ev.Trace.dur_wall, c +. ev.Trace.dur_cpu))
    snapshot.Snapshot.spans;
  Hashtbl.fold (fun name (n, w, c) acc -> (name, n, w, c) :: acc) tbl []
  |> List.sort compare

(* --- prometheus text exposition --- *)

(* Metric names use the pipeline's dotted convention
   ("router.swaps_inserted"); Prometheus names allow [a-zA-Z0-9_:], so
   everything else maps to '_' and the family gets a "qaoa_" prefix. *)
let prom_name name =
  "qaoa_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

(* 17 significant digits survive the round-trip; Prometheus accepts
   scientific notation. Non-finite values (empty histogram min/max)
   render as Prometheus +Inf/-Inf/NaN. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prometheus (snapshot : Snapshot.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt in
  List.iter
    (fun (name, v) ->
      let m = prom_name name in
      line "# TYPE %s counter" m;
      line "%s %d" m v)
    snapshot.Snapshot.counters;
  List.iter
    (fun (name, (s : Metrics_registry.summary)) ->
      let m = prom_name name in
      line "# TYPE %s summary" m;
      line "%s{quantile=\"0.5\"} %s" m (prom_float s.Metrics_registry.p50);
      line "%s{quantile=\"0.9\"} %s" m (prom_float s.Metrics_registry.p90);
      line "%s{quantile=\"0.99\"} %s" m (prom_float s.Metrics_registry.p99);
      line "%s_sum %s" m (prom_float s.Metrics_registry.sum);
      line "%s_count %d" m s.Metrics_registry.count;
      line "# TYPE %s_min gauge" m;
      line "%s_min %s" m (prom_float s.Metrics_registry.min);
      line "# TYPE %s_max gauge" m;
      line "%s_max %s" m (prom_float s.Metrics_registry.max))
    (summaries snapshot);
  (match span_rollup snapshot with
  | [] -> ()
  | rollup ->
    line "# TYPE qaoa_span_count counter";
    List.iter
      (fun (name, n, _, _) ->
        line "qaoa_span_count{name=\"%s\"} %d" (escape_label name) n)
      rollup;
    line "# TYPE qaoa_span_wall_seconds_total counter";
    List.iter
      (fun (name, _, w, _) ->
        line "qaoa_span_wall_seconds_total{name=\"%s\"} %s"
          (escape_label name) (prom_float w))
      rollup;
    line "# TYPE qaoa_span_cpu_seconds_total counter";
    List.iter
      (fun (name, _, _, c) ->
        line "qaoa_span_cpu_seconds_total{name=\"%s\"} %s"
          (escape_label name) (prom_float c))
      rollup);
  line "# TYPE qaoa_dropped_spans_total counter";
  line "qaoa_dropped_spans_total %d" snapshot.Snapshot.dropped_spans;
  Buffer.contents buf

(* --- json document --- *)

let json (snapshot : Snapshot.t) =
  Json.Assoc
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "qaoa_metrics");
      ( "counters",
        Json.Assoc
          (List.map (fun (k, v) -> (k, Json.Int v)) snapshot.Snapshot.counters)
      );
      ( "histograms",
        Json.Assoc
          (List.map
             (fun (k, s) -> (k, Json.Assoc (summary_fields s)))
             (summaries snapshot)) );
      ( "spans",
        Json.Assoc
          (List.map
             (fun (name, n, w, c) ->
               ( name,
                 Json.Assoc
                   [
                     ("count", Json.Int n);
                     ("wall_s", Json.Float w);
                     ("cpu_s", Json.Float c);
                   ] ))
             (span_rollup snapshot)) );
      ("dropped_spans", Json.Int snapshot.Snapshot.dropped_spans);
    ]

let render format snapshot =
  match format with
  | Config.Report -> report snapshot
  | Config.Jsonl -> jsonl snapshot
  | Config.Chrome -> Json.to_string (chrome snapshot)
  | Config.Folded -> folded snapshot
  | Config.Prometheus -> prometheus snapshot
  | Config.Json -> Json.to_string (json snapshot) ^ "\n"

(* --- write, and the at-exit flush --- *)

let flushed = ref false

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let export format (snapshot : Snapshot.t) =
  flushed := true;
  let contents = render format snapshot in
  match Config.out_path () with
  | None -> prerr_string contents
  | Some p -> (
    (* An unwritable output file must not abort the process (nor the
       at-exit flush of an otherwise successful run): warn and drop. *)
    match write_file p contents with
    | () ->
      Printf.eprintf "qaoa_obs: wrote %s trace to %s (%d spans%s)\n%!"
        (Config.format_name format) p
        (List.length snapshot.Snapshot.spans)
        (match snapshot.Snapshot.dropped_spans with
        | 0 -> ""
        | d -> Printf.sprintf ", %d dropped" d)
    | exception Sys_error msg ->
      Printf.eprintf "qaoa_obs: cannot write trace: %s\n%!" msg)

let write () =
  Option.iter (fun format -> export format (Snapshot.capture ())) (Config.format ())

let () =
  at_exit (fun () ->
      match Config.format () with
      | Some format when not !flushed ->
        let snapshot = Snapshot.capture () in
        if
          snapshot.Snapshot.spans <> []
          || snapshot.Snapshot.counters <> []
          || snapshot.Snapshot.histograms <> []
        then export format snapshot
      | _ -> ())
