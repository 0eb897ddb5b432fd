(* Multicore correctness of the observability layer: N domains hammer
   counters, histograms and nested spans in parallel; the merged view
   must be exact. *)

module Config = Qaoa_obs.Config
module Trace = Qaoa_obs.Trace
module Metrics = Qaoa_obs.Metrics_registry
module Snapshot = Qaoa_obs.Snapshot

let num_domains = 4
let incrs_per_domain = 30_000
let obs_per_domain = 3_000
let spans_per_domain = 200

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

(* Every domain runs the same deterministic workload: a shared counter,
   a per-domain counter, observations of [i mod 100] (integer-valued, so
   float sums are exact), and 3-deep span nests. *)
let workload k =
  for i = 1 to incrs_per_domain do
    Metrics.incr "stress.shared";
    if i mod 10 = 0 then Metrics.incr (Printf.sprintf "stress.worker%d" k) ~by:2
  done;
  for i = 0 to obs_per_domain - 1 do
    Metrics.observe "stress.sizes" (float_of_int (i mod 100))
  done;
  for _ = 1 to spans_per_domain do
    Trace.with_span "outer" (fun () ->
        Trace.with_span "mid" (fun () -> Trace.with_span "leaf" (fun () -> ())))
  done

let test_stress () =
  let mid_flight = Atomic.make Snapshot.empty in
  let domains =
    List.init num_domains (fun k ->
        Domain.spawn (fun () ->
            (* one concurrent capture mid-flight: must not crash and must
               be internally consistent (checked below) *)
            if k = 0 then Atomic.set mid_flight (Snapshot.capture ());
            workload k))
  in
  List.iter Domain.join domains;
  (* main domain contributes too, so [num_domains + 1] shards recorded *)
  workload num_domains;
  let snap = Snapshot.capture () in
  (* exact merged counters *)
  Alcotest.(check int) "shared counter exact"
    ((num_domains + 1) * incrs_per_domain)
    (Snapshot.counter snap "stress.shared");
  for k = 0 to num_domains do
    Alcotest.(check int)
      (Printf.sprintf "worker%d counter exact" k)
      (2 * (incrs_per_domain / 10))
      (Snapshot.counter snap (Printf.sprintf "stress.worker%d" k))
  done;
  (* exact merged histogram state *)
  (match Snapshot.summary snap "stress.sizes" with
  | None -> Alcotest.fail "stress.sizes histogram missing"
  | Some s ->
    Alcotest.(check int) "observation count exact"
      ((num_domains + 1) * obs_per_domain)
      s.Metrics.count;
    let sum_one =
      (* sum of (i mod 100) for i in 0 .. obs_per_domain-1 *)
      let full = obs_per_domain / 100 and rem = obs_per_domain mod 100 in
      (full * 4950) + (rem * (rem - 1) / 2)
    in
    Alcotest.(check (float 1e-6)) "observation sum exact"
      (float_of_int ((num_domains + 1) * sum_one))
      s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 0.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 99.0 s.Metrics.max);
  (* every shard registered *)
  Alcotest.(check bool)
    (Printf.sprintf "at least %d shards" (num_domains + 1))
    true
    (Metrics.shard_count () >= num_domains + 1);
  Alcotest.(check bool)
    (Printf.sprintf "at least %d tracing domains" (num_domains + 1))
    true
    (Trace.domains_seen () >= num_domains + 1);
  (* span stream: right count, and parentage/depth valid within each
     domain (a parent must exist, be on the same domain, one level up) *)
  let spans = snap.Snapshot.spans in
  Alcotest.(check int) "span count exact"
    ((num_domains + 1) * spans_per_domain * 3)
    (List.length spans);
  Alcotest.(check int) "no spans dropped" 0 snap.Snapshot.dropped_spans;
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun ev -> Hashtbl.replace by_id ev.Trace.id ev) spans;
  List.iter
    (fun ev ->
      if ev.Trace.parent = -1 then begin
        Alcotest.(check int) "root depth" 0 ev.Trace.depth;
        Alcotest.(check string) "root name" "outer" ev.Trace.name
      end
      else
        match Hashtbl.find_opt by_id ev.Trace.parent with
        | None -> Alcotest.failf "span %d has unknown parent" ev.Trace.id
        | Some parent ->
          Alcotest.(check int) "parent on same domain" ev.Trace.domain
            parent.Trace.domain;
          Alcotest.(check int) "depth is parent + 1" (parent.Trace.depth + 1)
            ev.Trace.depth;
          Alcotest.(check string)
            (ev.Trace.name ^ " nests correctly")
            (match ev.Trace.name with
            | "leaf" -> "mid"
            | "mid" -> "outer"
            | other -> "child of root? " ^ other)
            parent.Trace.name)
    spans;
  (* the mid-flight snapshot never exceeds the final totals *)
  let mid = Atomic.get mid_flight in
  Alcotest.(check bool) "mid-flight counter monotone" true
    (Snapshot.counter mid "stress.shared"
    <= Snapshot.counter snap "stress.shared");
  Alcotest.(check bool) "mid-flight spans monotone" true
    (List.length mid.Snapshot.spans <= List.length spans)

let suite =
  [
    Alcotest.test_case "4-domain stress: exact merged telemetry" `Quick
      (with_tracing test_stress);
  ]
