(* Metric catalogue, failure tally and the result documents a run
   writes.  The names, units and directions here are the ones
   BENCHMARK.json declares; README.md maps each per-layer metric to the
   end-to-end metric and workload it should move. *)

module Json = Qaoa_obs.Json

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "latency_p50_ms" "ms" "lower";
    m "latency_p95_ms" "ms" "lower";
    m "throughput_ops_per_s" "1/s" "higher";
    m "setup_s" "s" "lower";
    m "peak_rss_mb" "MB" "lower";
    m "depth_geomean" "count" "lower";
    m "gate_count_geomean" "count" "lower";
    m "depth_over_lb_geomean" "ratio" "lower";
  ]

(* Quality metrics are pure functions of the inputs: with the same seed
   on both sides, [compare] lets them increase by nothing at all. *)
let exact = [ "depth_geomean"; "gate_count_geomean"; "depth_over_lb_geomean" ]

let compile_phases =
  [
    "mapping"; "ordering"; "routing"; "verify"; "decomposition"; "metrics";
    "analyze"; "lint";
  ]

(* Serve stages in the order one request passes through them, each the
   span the replay opens around one public call. *)
let serve_stages =
  [
    "serve.request.parse"; "serve.request.cache_key"; "serve.cache.find";
    "serve.supervise.handle"; "serve.cache.store"; "serve.persist.append";
    "serve.render";
  ]

let per_layer =
  List.concat_map
    (fun p ->
      [
        m (Printf.sprintf "core.compile.%s.self_s" p) "s" "lower";
        m (Printf.sprintf "core.compile.%s.share" p) "ratio" "lower";
      ])
    compile_phases
  @ [
      m "core.compile.unattributed_share" "ratio" "lower";
      m "backend.router.swaps_total" "count" "lower";
      m "analysis.lint.findings_total" "count" "lower";
      m "hardware.profile.precompute_s" "s" "lower";
    ]
  @ List.concat_map
      (fun s ->
        [
          m (s ^ ".p50_us") "us" "lower";
          m (s ^ ".p99_us") "us" "lower";
          m (s ^ ".self_s") "s" "lower";
        ])
      serve_stages
  @ [
      m "serve.replay.unattributed_share" "ratio" "lower";
      m "serve.cache.hits" "count" "higher";
      m "serve.cache.misses" "count" "lower";
      m "serve.cache.rejects" "count" "lower";
      m "serve.cache.evictions" "count" "lower";
      m "serve.cache.hit_rate" "ratio" "higher";
      m "serve.persist.reload_s" "s" "lower";
      m "serve.persist.reloaded" "count" "higher";
      m "serve.supervise.prewarm_s" "s" "lower";
      m "serve.daemon.ping_rtt_p50_ms" "ms" "lower";
      m "serve.daemon.ping_rtt_p99_ms" "ms" "lower";
      m "serve.daemon.wait_p50_ms" "ms" "lower";
      m "bench.trace_overhead" "ratio" "lower";
    ]

(* ------------------------------------------------------------------ *)
(* Failure tally: an operation that fails any check counts once. *)

type tally = {
  mutable attempted : int;
  failed_ops : (int, unit) Hashtbl.t;
  mutable problems : string list;  (** first messages, newest first *)
  mutable run_ok : bool;  (** false on a failure outside any operation *)
}

let tally () =
  { attempted = 0; failed_ops = Hashtbl.create 8; problems = []; run_ok = true }

let note t msg =
  if List.length t.problems < 20 then t.problems <- msg :: t.problems;
  prerr_endline ("bench: " ^ msg)

let fail_op t op msg =
  Hashtbl.replace t.failed_ops op ();
  note t msg

(* A failure of the run itself (set-up, coverage, mismatched inputs). *)
let fail_run t msg =
  t.run_ok <- false;
  note t msg

let failed t = Hashtbl.length t.failed_ops

(* What one workload run hands back to [Main]. *)
type outcome = {
  tally : tally;
  values : (string * float) list;  (** metric name -> measured value *)
  samples : (string * int) list;  (** sample counts behind the values *)
  digest : string;  (** digest of the generated inputs *)
  spans : Span.t option;  (** the traced run's spans *)
}

let correct o = o.tally.run_ok && failed o.tally = 0

let metrics_json catalogue values =
  Json.Assoc
    (List.map
       (fun mt ->
         let v =
           match List.assoc_opt mt.name values with
           | Some v -> v
           | None -> 0.0
         in
         ( mt.name,
           Json.Assoc [ ("value", Json.Float v); ("unit", Json.String mt.unit_) ]
         ))
       catalogue)

(* The one line the benchmark contract reads: the last line of stdout. *)
let contract_line ~traced o =
  Json.to_string
    (Json.Assoc
       [
         ("correct", Json.Bool (correct o));
         ("attempted", Json.Int (max 1 o.tally.attempted));
         ("failed", Json.Int (failed o.tally));
         ( "metrics",
           metrics_json (if traced then per_layer else end_to_end) o.values );
       ])
