(* qaoa_obs: spans (nesting, exception unwinding), counters, histograms,
   every export format rendered from a snapshot (JSONL / Chrome-trace
   round-trips through the bundled JSON parser, golden output for the
   rest), and the disabled no-op guard. *)

module Config = Qaoa_obs.Config
module Trace = Qaoa_obs.Trace
module Metrics = Qaoa_obs.Metrics_registry
module Exporter = Qaoa_obs.Exporter
module Json = Qaoa_obs.Json
module Snapshot = Qaoa_obs.Snapshot
module Bench_diff = Qaoa_obs.Bench_diff

(* Every test runs against a clean, enabled registry and leaves tracing
   disabled so the rest of the suite (and the at-exit flush) sees the
   default state. *)
let with_tracing f () =
  Config.set (Some Config.Report);
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Config.set None;
      Trace.reset ();
      Metrics.reset ())
    f

let test_span_nesting () =
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 21) * 2)
  in
  Alcotest.(check int) "value threads through" 42 v;
  Alcotest.(check int) "stack unwound" 0 (Trace.current_depth ());
  match Trace.events () with
  | [ inner; outer ] ->
    (* completion order: child closes before parent *)
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check string) "outer name" "outer" outer.Trace.name;
    Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
    Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
    Alcotest.(check int) "inner parent" outer.Trace.id inner.Trace.parent;
    Alcotest.(check int) "outer is root" (-1) outer.Trace.parent;
    Alcotest.(check bool) "parent covers child" true
      (outer.Trace.dur_wall >= inner.Trace.dur_wall)
  | evs ->
    Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_exception_unwinding () =
  (try
     Trace.with_span "outer" (fun () ->
         Trace.with_span "boom" (fun () -> failwith "exploded"))
   with Failure _ -> ());
  Alcotest.(check int) "stack unwound after raise" 0 (Trace.current_depth ());
  Alcotest.(check int) "both spans recorded" 2 (Trace.span_count ());
  let boom =
    List.find (fun ev -> ev.Trace.name = "boom") (Trace.events ())
  in
  (match List.assoc_opt "exn" boom.Trace.attrs with
  | Some (Trace.String msg) ->
    Alcotest.(check bool) "exn attr mentions failure" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "missing exn attribute on failed span");
  (* tracing still works after the unwind, at root depth *)
  Trace.with_span "after" (fun () -> ());
  let after =
    List.find (fun ev -> ev.Trace.name = "after") (Trace.events ())
  in
  Alcotest.(check int) "fresh root span" (-1) after.Trace.parent

let test_counters () =
  Metrics.incr "swaps";
  Metrics.incr "swaps" ~by:41;
  Metrics.incr "layers";
  Alcotest.(check int) "accumulates" 42 (Metrics.counter "swaps");
  Alcotest.(check int) "independent" 1 (Metrics.counter "layers");
  Alcotest.(check int) "absent is zero" 0 (Metrics.counter "nope");
  Alcotest.(check (list (pair string int)))
    "sorted dump"
    [ ("layers", 1); ("swaps", 42) ]
    (Metrics.counters ())

let test_histograms () =
  for i = 1 to 100 do
    Metrics.observe "layer_size" (float_of_int i)
  done;
  match Metrics.summary "layer_size" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
    Alcotest.(check (float 1e-9)) "p50" 50.5 s.Metrics.p50;
    Alcotest.(check (float 1e-6)) "p90" 90.1 s.Metrics.p90;
    Alcotest.(check (float 1e-6)) "p99" 99.01 s.Metrics.p99

let test_jsonl_roundtrip () =
  Trace.with_span "compile" ~attrs:[ ("n", Trace.int 20) ] (fun () ->
      Trace.with_span "route" (fun () -> ()));
  Metrics.incr "swaps" ~by:7;
  Metrics.observe "layer_size" 3.0;
  let lines =
    Exporter.render Config.Jsonl (Snapshot.capture ())
    |> String.trim |> String.split_on_char '\n'
  in
  Alcotest.(check int) "2 spans + 1 counter + 1 histogram" 4
    (List.length lines);
  let parsed = List.map Json.of_string lines in
  let types =
    List.map
      (fun j ->
        match Json.member "type" j with
        | Some (Json.String t) -> t
        | _ -> Alcotest.fail "line without type")
      parsed
  in
  Alcotest.(check (list string))
    "line types"
    [ "span"; "span"; "counter"; "histogram" ]
    types;
  let span_line = List.hd parsed in
  (match Json.member "name" span_line with
  | Some (Json.String "route") -> ()
  | _ -> Alcotest.fail "first line should be the route span");
  match Json.member "value" (List.nth parsed 2) with
  | Some (Json.Int 7) -> ()
  | _ -> Alcotest.fail "counter value lost in round-trip"

let test_chrome_roundtrip () =
  Trace.with_span "compile" (fun () ->
      Trace.with_span "route" (fun () -> ignore (Sys.opaque_identity 1)));
  Metrics.incr "swaps" ~by:3;
  let doc =
    Json.of_string (Exporter.render Config.Chrome (Snapshot.capture ()))
  in
  let all_evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let is_meta ev = Json.member "ph" ev = Some (Json.String "M") in
  (* every domain lane is named through a thread_name metadata event *)
  Alcotest.(check bool)
    "thread_name metadata present" true
    (List.exists
       (fun ev ->
         is_meta ev && Json.member "name" ev = Some (Json.String "thread_name"))
       all_evs);
  let evs = List.filter (fun ev -> not (is_meta ev)) all_evs in
  Alcotest.(check int) "one complete event per span" 2 (List.length evs);
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.String "X") -> ()
      | _ -> Alcotest.fail "expected complete events (ph=X)");
      (match Json.member "tid" ev with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "expected a domain id as tid");
      match (Json.member "ts" ev, Json.member "dur" ev) with
      | Some ts, Some dur ->
        let ts = Option.get (Json.to_float ts) in
        let dur = Option.get (Json.to_float dur) in
        Alcotest.(check bool) "microsecond fields sane" true
          (Float.is_finite ts && dur >= 0.0)
      | _ -> Alcotest.fail "missing ts/dur")
    evs;
  match Json.member "otherData" doc with
  | Some other -> (
    match Json.member "counters" other with
    | Some (Json.Assoc [ ("swaps", Json.Int 3) ]) -> ()
    | _ -> Alcotest.fail "counters lost in chrome export")
  | None -> Alcotest.fail "missing otherData"

let test_disabled_noop () =
  (* NOT wrapped in with_tracing: tracing must be off here. *)
  Config.set None;
  Trace.reset ();
  Metrics.reset ();
  let ran = ref false in
  let v =
    Trace.with_span "ghost" (fun () ->
        ran := true;
        7)
  in
  Metrics.incr "ghost_counter" ~by:99;
  Metrics.observe "ghost_hist" 1.0;
  Trace.instant "ghost_marker";
  Alcotest.(check bool) "thunk still runs" true !ran;
  Alcotest.(check int) "value returned" 7 v;
  Alcotest.(check int) "no span recorded" 0 (Trace.span_count ());
  Alcotest.(check int) "no counter recorded" 0 (Metrics.counter "ghost_counter");
  Alcotest.(check bool) "no histogram recorded" true
    (Metrics.summary "ghost_hist" = None);
  (* timed still measures even when disabled *)
  let v, wall, cpu = Trace.timed "ghost_timed" (fun () -> 13) in
  Alcotest.(check int) "timed value" 13 v;
  Alcotest.(check bool) "timed measures" true (wall >= 0.0 && cpu >= 0.0);
  Alcotest.(check int) "timed records nothing" 0 (Trace.span_count ())

let test_buffer_cap () =
  Trace.set_max_events 3;
  Fun.protect
    ~finally:(fun () -> Trace.set_max_events 1_000_000)
    (fun () ->
      for _ = 1 to 5 do
        Trace.with_span "s" (fun () -> ())
      done;
      Alcotest.(check int) "capped" 3 (Trace.span_count ());
      Alcotest.(check int) "drops counted" 2 (Trace.dropped_count ()))

let test_json_parser () =
  let v =
    Json.Assoc
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Assoc [] ]);
      ]
  in
  Alcotest.(check bool) "round-trip" true
    (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "garbage rejected" true
    (Json.of_string_opt "{\"unterminated\": " = None);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Json.of_string_opt "{} x" = None);
  Alcotest.(check bool) "non-finite floats become null" true
    (Json.to_string (Json.Float Float.nan) = "null")

let test_config_parsing () =
  Alcotest.(check bool) "report" true
    (Config.format_of_string "report" = Some Config.Report);
  Alcotest.(check bool) "JSONL case-insensitive" true
    (Config.format_of_string "JSONL" = Some Config.Jsonl);
  Alcotest.(check bool) "chrome" true
    (Config.format_of_string "chrome" = Some Config.Chrome);
  Alcotest.(check bool) "unknown" true (Config.format_of_string "tsv" = None);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Config.format_name f ^ " round-trips")
        true
        (Config.format_of_string (Config.format_name f) = Some f))
    Config.[ Report; Jsonl; Chrome; Folded; Prometheus; Json ]

let test_report_renders () =
  Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
  Metrics.incr "c";
  Metrics.observe "h" 2.0;
  let s = Exporter.render Config.Report (Snapshot.capture ()) in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in report") true (contains needle))
    [ "a"; "b"; "counters:"; "histograms" ]

(* Satellite invariant: reads are pure. Reading the registry (or
   capturing a snapshot) twice with no intervening recording must yield
   identical results — a drain-and-add reader would double-count. *)
let test_reads_are_pure () =
  Metrics.incr "pure.counter" ~by:5;
  for i = 1 to 10 do
    Metrics.observe "pure.hist" (float_of_int i)
  done;
  Trace.with_span "pure.span" (fun () -> ());
  let c1 = Metrics.counters () and c2 = Metrics.counters () in
  Alcotest.(check bool) "counters read twice equal" true (c1 = c2);
  let h1 = Metrics.histograms () and h2 = Metrics.histograms () in
  Alcotest.(check bool) "histograms read twice equal" true (h1 = h2);
  let s1 = Snapshot.capture () and s2 = Snapshot.capture () in
  Alcotest.(check bool) "snapshots equal" true (s1 = s2);
  (match Metrics.summary "pure.hist" with
  | Some s ->
    Alcotest.(check int) "count exact after repeated reads" 10 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum exact" 55.0 s.Metrics.sum
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check int) "counter exact" 5 (Metrics.counter "pure.counter")

(* Satellite fix: when the event buffer is full, a close (including an
   exception unwind) drops the event but must still restore the
   domain-local span stack. *)
let test_buffer_full_unwind () =
  Trace.set_max_events 1;
  Fun.protect
    ~finally:(fun () -> Trace.set_max_events 1_000_000)
    (fun () ->
      (try
         Trace.with_span "outer" (fun () ->
             Trace.with_span "inner" (fun () ->
                 Trace.with_span "boom" (fun () -> failwith "exploded")))
       with Failure _ -> ());
      Alcotest.(check int) "stack restored despite drops" 0
        (Trace.current_depth ());
      Alcotest.(check int) "only one span buffered" 1 (Trace.span_count ());
      Alcotest.(check int) "the rest counted as dropped" 2
        (Trace.dropped_count ());
      (* recording still works at root depth after the unwind *)
      Trace.reset ();
      Trace.with_span "after" (fun () -> ());
      match Trace.events () with
      | [ ev ] ->
        Alcotest.(check string) "fresh span name" "after" ev.Trace.name;
        Alcotest.(check int) "fresh root parent" (-1) ev.Trace.parent;
        Alcotest.(check int) "fresh root depth" 0 ev.Trace.depth
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec at i =
    i + n <= m && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

let test_prometheus_exposition () =
  Metrics.incr "router.swaps_inserted" ~by:7;
  for i = 1 to 100 do
    Metrics.observe "router.layer_size" (float_of_int i)
  done;
  Trace.with_span "core.compile" (fun () -> ());
  let text = Exporter.render Config.Prometheus (Snapshot.capture ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains text needle))
    [
      "# TYPE qaoa_router_swaps_inserted counter";
      "qaoa_router_swaps_inserted 7";
      "# TYPE qaoa_router_layer_size summary";
      "qaoa_router_layer_size{quantile=\"0.5\"}";
      "qaoa_router_layer_size_count 100";
      "qaoa_router_layer_size_sum 5050";
      "qaoa_span_count{name=\"core.compile\"} 1";
      "qaoa_span_wall_seconds_total{name=\"core.compile\"}";
      "qaoa_dropped_spans_total 0";
    ]

let test_json_exposition () =
  Metrics.incr "swaps" ~by:3;
  Metrics.observe "h" 2.0;
  Trace.with_span "c" (fun () -> ());
  let doc = Json.of_string (Exporter.render Config.Json (Snapshot.capture ())) in
  (match Option.bind (Json.member "counters" doc) (Json.member "swaps") with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "counter lost in json exposition");
  (match
     Option.bind (Json.member "histograms" doc) (fun h ->
         Option.bind (Json.member "h" h) (Json.member "count"))
   with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "histogram count lost");
  match
    Option.bind (Json.member "spans" doc) (fun s ->
        Option.bind (Json.member "c" s) (Json.member "count"))
  with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "span roll-up lost"

let ev ?(domain = 0) ?cpu ?(attrs = []) ~id ~parent ~depth ~start ~dur name =
  {
    Trace.name;
    id;
    parent;
    depth;
    domain;
    start_wall = start;
    dur_wall = dur;
    dur_cpu = Option.value cpu ~default:dur;
    attrs;
  }

(* Deterministic flamegraph check on a hand-built snapshot: self time is
   a span's wall duration minus its direct children's. *)
let test_flamegraph_folded () =
  let snapshot =
    {
      Snapshot.counters = [];
      histograms = [];
      spans =
        [
          ev ~id:0 ~parent:(-1) ~depth:0 ~start:0.0 ~dur:0.010 "compile";
          ev ~id:1 ~parent:0 ~depth:1 ~start:0.001 ~dur:0.004 "route";
          ev ~id:2 ~parent:0 ~depth:1 ~start:0.006 ~dur:0.002 "route";
        ];
      dropped_spans = 0;
    }
  in
  Alcotest.(check (list string))
    "parent self time, leaf self time aggregated"
    [ "compile 4000"; "compile;route 6000" ]
    (String.split_on_char '\n'
       (String.trim (Exporter.render Config.Folded snapshot)));
  (* multi-domain streams get a synthetic per-domain root frame *)
  let multi =
    {
      snapshot with
      Snapshot.spans =
        [
          ev ~id:0 ~parent:(-1) ~depth:0 ~start:0.0 ~dur:0.010 "compile";
          ev ~domain:3 ~id:1 ~parent:(-1) ~depth:0 ~start:0.0 ~dur:0.010
            "compile";
        ];
    }
  in
  Alcotest.(check (list string))
    "per-domain roots"
    [ "domain-0;compile 10000"; "domain-3;compile 10000" ]
    (String.split_on_char '\n'
       (String.trim (Exporter.render Config.Folded multi)))

(* Golden output for a hand-built snapshot: 4 spans on 2 domains, 1
   dropped span, 2 counters and 1 histogram.  Any byte change in these
   formats breaks downstream parsers (flamegraph.pl, Prometheus, CI's
   JSON checks).  jsonl and chrome are checked structurally above,
   since their timestamps depend on [Config.epoch]. *)
let golden_snapshot =
  {
    Snapshot.counters = [ ("router.swaps_inserted", 7); ("serve.requests", 2) ];
    histograms =
      [
        ( "router.layer_size",
          {
            Metrics.h_count = 4;
            h_sum = 10.0;
            h_min = 1.0;
            h_max = 4.0;
            h_samples = [| 1.0; 2.0; 3.0; 4.0 |];
          } );
      ];
    spans =
      [
        ev ~id:1 ~parent:0 ~depth:1 ~start:0.25 ~dur:0.25
          ~attrs:[ ("swaps", Trace.Int 3) ]
          "route";
        ev ~id:0 ~parent:(-1) ~depth:0 ~start:0.0 ~dur:1.0 ~cpu:0.75 "compile";
        ev ~domain:1 ~id:3 ~parent:2 ~depth:1 ~start:0.5 ~dur:0.125
          ~cpu:0.0625 "route";
        ev ~domain:1 ~id:2 ~parent:(-1) ~depth:0 ~start:0.25 ~dur:0.5
          "compile";
      ];
    dropped_spans = 1;
  }

let golden_report =
  {|== qaoa_obs report ==
spans [1 dropped past buffer cap] (name, count, wall s, cpu s):
  compile                                           2    1.500000    1.250000
    route                                           2    0.375000    0.312500
counters:
  router.swaps_inserted                                   7
  serve.requests                                          2
histograms (name, count, mean, p50, p90, p99, max):
  router.layer_size                             4     2.500     2.500     3.700     3.970     4.000
|}

let golden_folded =
  {|domain-0;compile 750000
domain-0;compile;route 250000
domain-1;compile 375000
domain-1;compile;route 125000
|}

let golden_prometheus =
  {|# TYPE qaoa_router_swaps_inserted counter
qaoa_router_swaps_inserted 7
# TYPE qaoa_serve_requests counter
qaoa_serve_requests 2
# TYPE qaoa_router_layer_size summary
qaoa_router_layer_size{quantile="0.5"} 2.5
qaoa_router_layer_size{quantile="0.9"} 3.7000000000000002
qaoa_router_layer_size{quantile="0.99"} 3.9699999999999998
qaoa_router_layer_size_sum 10
qaoa_router_layer_size_count 4
# TYPE qaoa_router_layer_size_min gauge
qaoa_router_layer_size_min 1
# TYPE qaoa_router_layer_size_max gauge
qaoa_router_layer_size_max 4
# TYPE qaoa_span_count counter
qaoa_span_count{name="compile"} 2
qaoa_span_count{name="route"} 2
# TYPE qaoa_span_wall_seconds_total counter
qaoa_span_wall_seconds_total{name="compile"} 1.5
qaoa_span_wall_seconds_total{name="route"} 0.375
# TYPE qaoa_span_cpu_seconds_total counter
qaoa_span_cpu_seconds_total{name="compile"} 1.25
qaoa_span_cpu_seconds_total{name="route"} 0.3125
# TYPE qaoa_dropped_spans_total counter
qaoa_dropped_spans_total 1
|}

let golden_json =
  {|{"schema_version":1,"kind":"qaoa_metrics","counters":{"router.swaps_inserted":7,"serve.requests":2},"histograms":{"router.layer_size":{"count":4,"sum":10.0,"min":1.0,"max":4.0,"mean":2.5,"p50":2.5,"p90":3.7000000000000002,"p99":3.9699999999999998}},"spans":{"compile":{"count":2,"wall_s":1.5,"cpu_s":1.25},"route":{"count":2,"wall_s":0.375,"cpu_s":0.3125}},"dropped_spans":1}
|}

let test_golden_render () =
  List.iter
    (fun (format, expected) ->
      Alcotest.(check string)
        (Config.format_name format)
        expected
        (Exporter.render format golden_snapshot))
    [
      (Config.Report, golden_report);
      (Config.Folded, golden_folded);
      (Config.Prometheus, golden_prometheus);
      (Config.Json, golden_json);
    ]

let bench_doc kernels resilience =
  Json.Assoc
    [
      ("schema_version", Json.Int 1);
      ("scale", Json.String "smoke");
      ( "kernels",
        Json.Assoc
          (List.map
             (fun (name, ms) ->
               (name, Json.Assoc [ ("ms_per_run", Json.Float ms) ]))
             kernels) );
      ( "resilience",
        Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) resilience) );
    ]

let test_bench_diff () =
  let baseline =
    bench_doc
      [ ("a", 1.0); ("b", 2.0); ("tiny", 0.001) ]
      [ ("instances", 10); ("compiled", 10); ("exhausted", 0) ]
  in
  (* identity: comparing a baseline with itself is clean *)
  let self =
    Bench_diff.compare_docs ~baseline ~current:baseline ()
  in
  Alcotest.(check bool) "self-diff passes" false (Bench_diff.regressed self);
  (* a 3x slowdown on b and a new exhausted compile both gate *)
  let current =
    bench_doc
      [ ("a", 1.5); ("b", 6.0); ("tiny", 0.5) ]
      [ ("instances", 10); ("compiled", 9); ("exhausted", 1) ]
  in
  let report = Bench_diff.compare_docs ~baseline ~current () in
  Alcotest.(check int) "two gated regressions" 2 (Bench_diff.regressions report);
  let status_of metric =
    match
      List.find_opt (fun r -> r.Bench_diff.metric = metric) report.Bench_diff.rows
    with
    | Some r -> r.Bench_diff.status
    | None -> Alcotest.failf "row %s missing" metric
  in
  Alcotest.(check bool) "+50%% within default gate" true
    (status_of "kernel.a" = Bench_diff.Pass);
  Alcotest.(check bool) "3x slowdown regresses" true
    (status_of "kernel.b" = Bench_diff.Regressed);
  Alcotest.(check bool) "below noise floor is informational" true
    (status_of "kernel.tiny" = Bench_diff.Info);
  Alcotest.(check bool) "exhausted increase regresses" true
    (status_of "resilience.exhausted" = Bench_diff.Regressed);
  (* per-metric override loosens the gate *)
  let loose =
    Bench_diff.compare_docs ~overrides:[ ("kernel.b", 5.0) ] ~baseline ~current
      ()
  in
  Alcotest.(check bool) "override unblocks kernel.b" true
    (List.exists
       (fun r ->
         r.Bench_diff.metric = "kernel.b" && r.Bench_diff.status = Bench_diff.Pass)
       loose.Bench_diff.rows);
  (* a gated kernel vanishing from the current run is a broken contract *)
  let removed =
    Bench_diff.compare_docs ~baseline
      ~current:
        (bench_doc [ ("a", 1.0) ] [ ("instances", 10); ("exhausted", 0) ])
      ()
  in
  Alcotest.(check bool) "removed kernel regresses" true
    (Bench_diff.regressed removed);
  (* text and json reports render *)
  Alcotest.(check bool) "text report mentions REGRESSED" true
    (contains (Bench_diff.to_text report) "REGRESSED");
  match Json.member "regressions" (Bench_diff.to_json report) with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "json report regression count"

(* Deadline.retry's three exits.  Every attempt fails; the log records
   each attempt's index and seed. *)
let run_retry ?deadline ~tries ~retryable () =
  let log = ref [] in
  let outcome =
    Qaoa_obs.Deadline.retry ?deadline ~tries ~seed:5 ~retryable
      ~on_expiry:(fun ~budget_s:_ ~elapsed_s:_ -> "expired")
      (fun ~attempt ~seed ->
        log := (attempt, seed) :: !log;
        Error "failed")
  in
  (outcome, List.rev !log)

let test_retry_stops_on_non_retryable () =
  let outcome, log = run_retry ~tries:3 ~retryable:(fun _ -> false) () in
  Alcotest.(check bool) "first error after one attempt" true
    (outcome = (Error "failed", 1));
  Alcotest.(check (list (pair int int))) "attempt 0 keeps the seed"
    [ (0, 5) ] log

let test_retry_exhausts_tries () =
  let stride = Qaoa_obs.Deadline.reseed_stride in
  let outcome, log = run_retry ~tries:3 ~retryable:(fun _ -> true) () in
  Alcotest.(check bool) "last error after tries attempts" true
    (outcome = (Error "failed", 3));
  Alcotest.(check (list (pair int int))) "attempt k reseeds by k strides"
    [ (0, 5); (1, 5 + stride); (2, 5 + (2 * stride)) ]
    log

let test_retry_expired_deadline () =
  let deadline = Qaoa_obs.Deadline.start ~budget_s:1e-6 in
  Unix.sleepf 0.002;
  let outcome, log =
    run_retry ~deadline ~tries:3 ~retryable:(fun _ -> true) ()
  in
  Alcotest.(check bool) "expiry error, no attempt counted" true
    (outcome = (Error "expired", 0));
  Alcotest.(check int) "no attempt started" 0 (List.length log)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick (with_tracing test_span_nesting);
    Alcotest.test_case "span exception unwinding" `Quick
      (with_tracing test_span_exception_unwinding);
    Alcotest.test_case "counters" `Quick (with_tracing test_counters);
    Alcotest.test_case "histogram aggregation" `Quick
      (with_tracing test_histograms);
    Alcotest.test_case "jsonl round-trip" `Quick
      (with_tracing test_jsonl_roundtrip);
    Alcotest.test_case "chrome trace round-trip" `Quick
      (with_tracing test_chrome_roundtrip);
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span buffer cap" `Quick (with_tracing test_buffer_cap);
    Alcotest.test_case "json parse/print round-trip" `Quick test_json_parser;
    Alcotest.test_case "QAOA_TRACE value parsing" `Quick test_config_parsing;
    Alcotest.test_case "report renders" `Quick (with_tracing test_report_renders);
    Alcotest.test_case "reads are pure (no double count)" `Quick
      (with_tracing test_reads_are_pure);
    Alcotest.test_case "buffer-full exception unwind" `Quick
      (with_tracing test_buffer_full_unwind);
    Alcotest.test_case "prometheus exposition" `Quick
      (with_tracing test_prometheus_exposition);
    Alcotest.test_case "json exposition" `Quick (with_tracing test_json_exposition);
    Alcotest.test_case "flamegraph folded stacks" `Quick test_flamegraph_folded;
    Alcotest.test_case "golden render of a hand-built snapshot" `Quick
      test_golden_render;
    Alcotest.test_case "bench regression diff" `Quick test_bench_diff;
    Alcotest.test_case "retry stops on a non-retryable error" `Quick
      test_retry_stops_on_non_retryable;
    Alcotest.test_case "retry exhausts its tries" `Quick
      test_retry_exhausts_tries;
    Alcotest.test_case "retry starts nothing past the deadline" `Quick
      test_retry_expired_deadline;
  ]
