(* The serving layer: domain pool, artifact cache, request schema, and
   the determinism guarantees the JSONL service advertises. *)

module Pool = Qaoa_serve.Pool
module Cache = Qaoa_serve.Cache
module Request = Qaoa_serve.Request
module Serve = Qaoa_serve.Serve
module Supervise = Qaoa_serve.Supervise
module Persist = Qaoa_serve.Persist
module Daemon = Qaoa_serve.Daemon
module Chaos = Qaoa_journal.Chaos
module Rng = Qaoa_util.Rng
module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Json = Qaoa_obs.Json
module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Topologies = Qaoa_hardware.Topologies
module Check = Qaoa_verify.Check

(* --- pool ---------------------------------------------------------- *)

let test_pool_stream_ordered () =
  List.iter
    (fun (workers, capacity) ->
      let n = 200 in
      let next = ref 0 in
      let produce () =
        if !next >= n then None
        else begin
          let v = !next in
          incr next;
          Some v
        end
      in
      let seen = ref [] in
      let count =
        Pool.stream ~workers ~queue_capacity:capacity ~produce
          ~consume:(fun seq v -> seen := (seq, v) :: !seen)
          (fun v -> v * 3)
      in
      Alcotest.(check int) "all items processed" n count;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "submission order (%d workers, queue %d)" workers
           capacity)
        (List.init n (fun i -> (i, i * 3)))
        (List.rev !seen))
    [ (1, 1); (1, 4); (4, 2); (4, 64); (8, 3) ]

let test_pool_stream_propagates_job_exception () =
  let next = ref 0 in
  let produce () =
    if !next >= 40 then None
    else begin
      let v = !next in
      incr next;
      Some v
    end
  in
  Alcotest.check_raises "job exception re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.stream ~workers:4 ~produce
           ~consume:(fun _ _ -> ())
           (fun v -> if v = 17 then failwith "boom" else v)))

(* A request/await producer whose [Block] waits only on a pipe that
   [on_complete] feeds: each item is submitted after the previous one
   came back, so the stream finishes fast only if every completion
   wakes the producer (a lost wakeup costs the 5s safety timeout). *)
let test_pool_stream_poll_wakes_on_complete () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
  @@ fun () ->
  let calls = Atomic.make 0 in
  let on_complete () =
    Atomic.incr calls;
    ignore (Unix.write_substring w "!" 0 1)
  in
  let n = 100 in
  let next = ref 0 and seen = ref [] and consumed = ref 0 in
  let bytes = Bytes.create 64 in
  let produce () =
    if !next >= n then Pool.Eof
    else if !next > !consumed then begin
      (match Unix.select [ r ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "no completion wakeup within 5s"
      | _ -> ignore (Unix.read r bytes 0 (Bytes.length bytes)));
      Pool.Block
    end
    else begin
      let v = !next in
      incr next;
      Pool.Item v
    end
  in
  let t0 = Unix.gettimeofday () in
  let count =
    Pool.stream_poll ~workers:2 ~on_complete ~produce
      ~consume:(fun seq v ->
        incr consumed;
        seen := (seq, v) :: !seen)
      (fun v -> v * 3)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all items processed" n count;
  Alcotest.(check int) "one callback per item" n (Atomic.get calls);
  Alcotest.(check (list (pair int int)))
    "submission order"
    (List.init n (fun i -> (i, i * 3)))
    (List.rev !seen);
  if elapsed >= 1.0 then
    Alcotest.failf "100 request/await items took %.2fs (limit 1s)" elapsed

(* --- Rng.split ----------------------------------------------------- *)

(* The split stream must not depend on how much the parent has drawn:
   that is what makes work handed to pool workers reproducible when the
   dispatch order changes. *)
let test_split_independent_of_draw_position () =
  let child_draws parent =
    let c = Rng.split parent in
    List.init 8 (fun _ -> Rng.int c 1_000_000)
  in
  let a = Rng.create 1234 in
  let b = Rng.create 1234 in
  ignore (Rng.int b 99);
  ignore (Rng.float b 1.0);
  ignore (Rng.bool b);
  Alcotest.(check (list int))
    "first split agrees regardless of parent draws" (child_draws a)
    (child_draws b);
  (* ... and the second split too, even with more interleaved draws. *)
  ignore (Rng.int b 7);
  Alcotest.(check (list int))
    "second split agrees regardless of parent draws" (child_draws a)
    (child_draws b)

let test_split_streams_distinct () =
  (* 64 parents x 4 splits: no two children may share a stream prefix,
     and none may clone its parent. *)
  let tbl = Hashtbl.create 512 in
  let add key tag =
    match Hashtbl.find_opt tbl key with
    | Some other ->
      Alcotest.failf "stream prefix collision between %s and %s" other tag
    | None -> Hashtbl.replace tbl key tag
  in
  let prefix rng = List.init 4 (fun _ -> Rng.int rng 1_000_000_000) in
  for seed = 0 to 63 do
    let parent = Rng.create seed in
    let children =
      List.init 4 (fun k -> (Printf.sprintf "seed %d split %d" seed k, Rng.split parent))
    in
    add (prefix (Rng.create seed)) (Printf.sprintf "seed %d parent" seed);
    List.iter (fun (tag, c) -> add (prefix c) tag) children
  done

(* --- request schema ------------------------------------------------ *)

let parse_ok line =
  match Request.of_line line with
  | Ok r -> r
  | Error e -> Alcotest.failf "expected parse, got error: %s" e

let parse_err line =
  match Request.of_line line with
  | Ok _ -> Alcotest.failf "expected error for %s" line
  | Error e -> e

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_request_normalization () =
  (* Different textual spellings of the same request: edge order,
     orientation, duplicates. *)
  let a = parse_ok {|{"id":"a","graph":{"n":4,"edges":[[0,1],[2,3],[1,2]]}}|} in
  let b = parse_ok {|{"id":"b","graph":{"n":4,"edges":[[2,1],[1,0],[3,2],[0,1]]}}|} in
  Alcotest.(check string) "fingerprints agree" (Request.fingerprint a)
    (Request.fingerprint b);
  Alcotest.(check bool) "cache keys agree" true
    (Request.cache_key a = Request.cache_key b);
  (* round-trip: serialized normal form parses back to the same key *)
  let c = parse_ok (Json.to_string (Request.to_json a)) in
  Alcotest.(check string) "round-trip fingerprint" (Request.fingerprint a)
    (Request.fingerprint c);
  (* The fingerprint is the whole cache key, so every field but "id"
     must reach it: one variant of [a] per field, each a different key
     from [a] and from every other variant. *)
  let base = {|"graph":{"n":4,"edges":[[0,1],[2,3],[1,2]]}|} in
  let variants =
    [
      ("graph", {|"graph":{"n":4,"edges":[[0,1],[2,3],[1,2],[0,3]]}|});
      ("qasm", {|"qasm":"OPENQASM 2.0; qreg q[4]; cx q[0],q[1];"|});
      ("device", base ^ {|,"device":"melbourne"|});
      ("policy", base ^ {|,"policy":"qaim"|});
      ("seed", base ^ {|,"seed":43|});
      ("p", base ^ {|,"p":2|});
      ("gamma", base ^ {|,"gamma":0.8|});
      ("beta", base ^ {|,"beta":0.5|});
      ("packing_limit", base ^ {|,"packing_limit":3|});
      ("measure", base ^ {|,"measure":false|});
      ("verify", base ^ {|,"verify":true|});
      ("analyze", base ^ {|,"analyze":true|});
      ("qasm_out", base ^ {|,"qasm_out":true|});
    ]
  in
  let keyed =
    ("base", Request.cache_key a)
    :: List.map
         (fun (field, body) ->
           (field, Request.cache_key (parse_ok ({|{"id":"v",|} ^ body ^ "}"))))
         variants
  in
  List.iteri
    (fun i (f, k) ->
      List.iteri
        (fun j (g, k') ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s keys differ" f g)
              true (k <> k'))
        keyed)
    keyed

let test_request_rejections () =
  let check_err name line sub =
    let e = parse_err line in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S (got %S)" name sub e)
      true
      (contains_substring ~sub e)
  in
  check_err "not json" "nope" "malformed JSON";
  check_err "not an object" "[1,2]" "object";
  check_err "missing id" {|{"graph":{"n":2,"edges":[[0,1]]}}|} "id";
  check_err "unknown field" {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"sede":7}|}
    "unknown field";
  check_err "no source" {|{"id":"a"}|} "graph";
  check_err "both sources"
    {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"qasm":"x"}|} "not both";
  check_err "self loop" {|{"id":"a","graph":{"n":3,"edges":[[1,1]]}}|} "self-loop";
  check_err "edge range" {|{"id":"a","graph":{"n":3,"edges":[[0,7]]}}|} "range";
  check_err "edgeless" {|{"id":"a","graph":{"n":3,"edges":[]}}|} "no edges";
  check_err "bad policy" {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"policy":"x"}|}
    "unknown policy";
  check_err "packing limit scope"
    {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"policy":"qaim","packing_limit":4}|}
    "packing_limit"

(* --- cache --------------------------------------------------------- *)

let key i = Printf.sprintf "k%d" i

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  ignore (Cache.store c (key 1) [ ("v", Json.Int 1) ]);
  ignore (Cache.store c (key 2) [ ("v", Json.Int 2) ]);
  ignore (Cache.find c (key 1));
  (* key 2 is now least recently used; inserting key 3 must evict it *)
  ignore (Cache.store c (key 3) [ ("v", Json.Int 3) ]);
  Alcotest.(check bool) "key 1 survives" true (Cache.find c (key 1) <> None);
  Alcotest.(check bool) "key 2 evicted" true (Cache.find c (key 2) = None);
  Alcotest.(check bool) "key 3 present" true (Cache.find c (key 3) <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "size at capacity" 2 s.Cache.size;
  Alcotest.(check int) "inserts counted" 3 s.Cache.inserts

(* Every missed lookup is classified exactly once when its artifact
   comes back - store (miss) or reject - so the ledger balances. *)
let test_cache_lookup_taxonomy () =
  let c = Cache.create ~max_entry_bytes:64 ~capacity:4 () in
  (* miss -> cacheable store *)
  Alcotest.(check bool) "first lookup misses" true (Cache.find c (key 1) = None);
  Alcotest.(check bool) "stored" true
    (Cache.store c (key 1) [ ("v", Json.Int 1) ] = Cache.Stored);
  (* hit *)
  Alcotest.(check bool) "second lookup hits" true (Cache.find c (key 1) <> None);
  (* miss -> uncacheable artifact *)
  Alcotest.(check bool) "error lookup misses" true (Cache.find c (key 2) = None);
  Cache.reject c;
  (* miss -> oversized artifact, rejected at store *)
  Alcotest.(check bool) "big lookup misses" true (Cache.find c (key 3) = None);
  Alcotest.(check bool) "oversized rejected" true
    (Cache.store c (key 3) [ ("v", Json.String (String.make 200 'x')) ]
    = Cache.Oversized);
  Alcotest.(check bool) "oversized not inserted" true
    (Cache.find c (key 3) = None);
  Cache.reject c;
  (* the find above missed again: classify it *)
  let s = Cache.stats c in
  Alcotest.(check int) "lookups" 5 s.Cache.lookups;
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "rejects" 3 s.Cache.rejects;
  Alcotest.(check int) "taxonomy balances: hits + misses + rejects = lookups"
    s.Cache.lookups
    (s.Cache.hits + s.Cache.misses + s.Cache.rejects)

(* --- the service --------------------------------------------------- *)

let config ?(workers = 1) ?cache ?persist ?supervise () =
  {
    Serve.workers;
    queue_capacity = 16;
    timings = false;
    cache;
    persist;
    supervise = Option.value supervise ~default:Supervise.default_config;
    drain = None;
    inflight = Atomic.make 0;
  }

let corpus = lazy (Serve.gen_corpus ~seed:11 ~count:16 ())

(* The headline guarantee: byte-identical output for any worker count. *)
let test_ndomain_determinism () =
  let reference, _ = Serve.run_lines (config ~workers:1 ()) (Lazy.force corpus) in
  List.iter
    (fun workers ->
      let out, stats = Serve.run_lines (config ~workers ()) (Lazy.force corpus) in
      Alcotest.(check (list string))
        (Printf.sprintf "%d workers, input order" workers)
        reference out;
      Alcotest.(check int) "no errors" 0 stats.Serve.errors)
    [ 2; 4; 8 ]

(* A cached artifact must be byte-identical to a fresh compile: caching
   can change latency, never bytes. *)
let test_cache_hit_byte_equality () =
  let lines = Lazy.force corpus in
  let fresh, _ = Serve.run_lines (config ()) lines in
  let cache = Cache.create ~capacity:64 () in
  let cached_cfg = config ~workers:4 ~cache () in
  let first, _ = Serve.run_lines cached_cfg lines in
  let second, stats = Serve.run_lines cached_cfg lines in
  Alcotest.(check (list string)) "cold cached run = uncached run" fresh first;
  Alcotest.(check (list string)) "warm cached run = uncached run" fresh second;
  match stats.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "warm run hits (%d) cover the corpus" s.Cache.hits)
      true
      (s.Cache.hits >= List.length lines)

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

(* "analyze": true attaches the static commutation-DAG record on both
   the compile and the qasm-route paths, its internal depth chain holds,
   and cached hits replay it byte-identically (analyze is part of the
   fingerprint, so with/without variants never alias). *)
let test_analyze_attaches_static_record () =
  let lines =
    [
      {|{"id":"s1","graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]},"policy":"ic","analyze":true}|};
      {|{"id":"s2","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];","analyze":true}|};
    ]
  in
  let fresh, _ = Serve.run_lines (config ()) lines in
  Alcotest.(check int) "both served" 2 (List.length fresh);
  List.iter
    (fun line ->
      let json = Json.of_string line in
      let static = member_exn "static" json in
      let geti name =
        match Json.member name static with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "static lacks integer %S" name
      in
      let lb = geti "lower_bound" in
      Alcotest.(check bool) "depth chain holds" true
        (0 < lb
        && lb <= geti "asap_depth"
        && geti "asap_depth" <= geti "measured_depth"))
    fresh;
  let cache = Cache.create ~capacity:16 () in
  let cfg = config ~cache () in
  let first, _ = Serve.run_lines cfg lines in
  let second, stats = Serve.run_lines cfg lines in
  Alcotest.(check (list string)) "cold cached = fresh" fresh first;
  Alcotest.(check (list string)) "warm cached = fresh" fresh second;
  (match stats.Serve.cache_stats with
  | Some s -> Alcotest.(check bool) "warm run hit" true (s.Cache.hits >= 2)
  | None -> Alcotest.fail "cache stats missing");
  (* the same request without analyze keys differently *)
  let strip = {|{"id":"s1","graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]},"policy":"ic"}|} in
  match (Request.of_line (List.nth lines 0), Request.of_line strip) with
  | Ok with_a, Ok without ->
    Alcotest.(check bool) "distinct cache keys" false
      (Request.cache_key with_a = Request.cache_key without)
  | _ -> Alcotest.fail "request parse failed"

let test_malformed_requests_are_structured_errors () =
  let lines =
    [
      "not json at all";
      {|{"id":"good","graph":{"n":4,"edges":[[0,1],[2,3]]}}|};
      {|{"id":"baddev","graph":{"n":3,"edges":[[0,1]]},"device":"enoent"}|};
      {|{"id":"big","graph":{"n":25,"edges":[[0,24]]},"device":"tokyo"}|};
      {|{"id":"badqasm","qasm":"OPENQASM 2.0; garbage"}|};
      (* fields that size an allocation: each must be refused before
         anything is built from it *)
      {|{"id":"hugen","graph":{"n":100000000000000000,"edges":[[0,1]]}}|};
      {|{"id":"hugedev","graph":{"n":3,"edges":[[0,1]]},"device":"linear100000000000000"}|};
    ]
  in
  let out, stats =
    Serve.run_lines
      (config ~workers:4 ~cache:(Cache.create ~capacity:16 ()) ())
      lines
  in
  Alcotest.(check int) "one response per line" (List.length lines)
    (List.length out);
  Alcotest.(check int) "requests counted" (List.length lines)
    stats.Serve.requests;
  Alcotest.(check int) "errors counted" 6 stats.Serve.errors;
  let parsed = List.map (fun l -> Option.get (Json.of_string_opt l)) out in
  let kind_of json =
    match member_exn "error" json with
    | Json.Assoc _ as e -> (
      match Json.member "kind" e with Some (Json.String k) -> k | _ -> "?")
    | _ -> "?"
  in
  (match parsed with
  | [ bad; good; baddev; big; badqasm; hugen; hugedev ] ->
    Alcotest.(check bool) "bad line keeps null id" true
      (member_exn "id" bad = Json.Null);
    Alcotest.(check bool) "bad line located" true
      (member_exn "line" bad = Json.Int 1);
    Alcotest.(check string) "bad line kind" "bad_request" (kind_of bad);
    Alcotest.(check bool) "good line still compiles" true
      (member_exn "ok" good = Json.Bool true);
    Alcotest.(check string) "unknown device kind" "unknown_device"
      (kind_of baddev);
    Alcotest.(check string) "oversized problem kind" "too_many_qubits"
      (kind_of big);
    Alcotest.(check string) "unparseable qasm kind" "bad_request"
      (kind_of badqasm);
    Alcotest.(check string) "graph.n over the ceiling" "bad_request"
      (kind_of hugen);
    Alcotest.(check string) "device over the ceiling" "unknown_device"
      (kind_of hugedev)
  | _ -> Alcotest.fail "unexpected response shape")

let kind_of json =
  match Json.member "error" json with
  | Some (Json.Assoc _ as e) -> (
    match Json.member "kind" e with Some (Json.String k) -> k | _ -> "?")
  | _ -> "?"

let parse_response l = Option.get (Json.of_string_opt l)

(* JSON floats parse to infinity past the double range; a non-finite
   angle must die at the parser as a bad request, not flow into the
   compiler. *)
let test_request_rejects_nonfinite_floats () =
  let e =
    parse_err {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"gamma":1e999}|}
  in
  Alcotest.(check bool)
    (Printf.sprintf "mentions finiteness (got %S)" e)
    true
    (contains_substring ~sub:"finite" e);
  ignore
    (parse_err {|{"id":"a","graph":{"n":2,"edges":[[0,1]]},"beta":-1e999}|});
  let out, stats =
    Serve.run_lines (config ())
      [ {|{"id":"inf","graph":{"n":2,"edges":[[0,1]]},"gamma":1e999}|} ]
  in
  Alcotest.(check int) "structured error" 1 stats.Serve.errors;
  Alcotest.(check string) "bad_request kind" "bad_request"
    (kind_of (parse_response (List.hd out)))

(* Serve-level ledger: every parsed request does one cache lookup, and
   uncacheable outcomes (errors of any kind) settle it as a reject. *)
let test_serve_taxonomy_balances () =
  let lines =
    [
      {|{"id":"good","graph":{"n":4,"edges":[[0,1],[2,3]]}}|};
      "not json at all";
      {|{"id":"baddev","graph":{"n":3,"edges":[[0,1]]},"device":"enoent"}|};
      {|{"id":"good","graph":{"n":4,"edges":[[0,1],[2,3]]}}|};
      {|{"id":"big","graph":{"n":25,"edges":[[0,24]]},"device":"tokyo"}|};
    ]
  in
  let cache = Cache.create ~capacity:16 () in
  let _, stats = Serve.run_lines (config ~cache ()) lines in
  match stats.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some s ->
    (* the unparseable line never reaches the cache *)
    Alcotest.(check int) "lookups" 4 s.Cache.lookups;
    Alcotest.(check int) "hits" 1 s.Cache.hits;
    Alcotest.(check int) "misses" 1 s.Cache.misses;
    Alcotest.(check int) "rejects" 2 s.Cache.rejects;
    Alcotest.(check int) "taxonomy balances" s.Cache.lookups
      (s.Cache.hits + s.Cache.misses + s.Cache.rejects)

(* --- supervision --------------------------------------------------- *)

let with_inject hook f =
  Supervise.inject_hook := Some hook;
  Fun.protect ~finally:(fun () -> Supervise.inject_hook := None) f

(* A transient worker fault is retried with a reseeded attempt and
   served (flagged, uncached); a permanent one is contained as a
   structured internal error.  Either way the other requests' bytes
   are untouched. *)
let test_retry_and_containment () =
  let lines = Lazy.force corpus in
  let reference, _ = Serve.run_lines (config ()) lines in
  let flaky_id = "req-0003" and dead_id = "req-0007" in
  let out, stats =
    with_inject
      (fun ~id ~attempt ->
        if id = flaky_id && attempt = 0 then failwith "transient fault";
        if id = dead_id then failwith "permanent fault")
      (fun () ->
        let cache = Cache.create ~capacity:64 () in
        Serve.run_lines (config ~cache ()) lines)
  in
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length out);
  Alcotest.(check int) "only the dead request errors" 1 stats.Serve.errors;
  List.iteri
    (fun i (ref_line, line) ->
      let json = parse_response line in
      let id =
        match Json.member "id" json with Some (Json.String s) -> s | _ -> "?"
      in
      if id = flaky_id then begin
        Alcotest.(check bool) "flaky request still succeeds" true
          (Json.member "ok" json = Some (Json.Bool true));
        Alcotest.(check bool) "retry is flagged" true
          (Json.member "attempts" json = Some (Json.Int 2))
      end
      else if id = dead_id then
        Alcotest.(check string) "permanent fault contained as internal"
          "internal" (kind_of json)
      else
        Alcotest.(check string)
          (Printf.sprintf "request %d bytes unaffected" i)
          ref_line line)
    (List.combine reference out)

(* VIC needs calibration and tokyo ships none, so every such request
   answers missing_calibration - however many failures came before it
   and at any worker count: no answer depends on earlier requests. *)
let test_uncalibrated_vic_is_missing_calibration () =
  let lines =
    List.init 40 (fun i ->
        Printf.sprintf
          {|{"id":"vic-%d","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"policy":"vic","device":"tokyo","seed":%d}|}
          i i)
  in
  let out, stats = Serve.run_lines (config ~workers:1 ()) lines in
  List.iteri
    (fun i line ->
      Alcotest.(check string)
        (Printf.sprintf "line %d" (i + 1))
        "missing_calibration"
        (kind_of (parse_response line)))
    out;
  Alcotest.(check int) "every line errors" 40 stats.Serve.errors;
  let out4, _ = Serve.run_lines (config ~workers:4 ()) lines in
  Alcotest.(check (list string)) "workers 1 and 4 agree" out out4

(* The request deadline reaches the QASM route path: a program whose
   400 CXs join far corners of the grid cannot route in a microsecond. *)
let test_qasm_route_honours_deadline () =
  let cx =
    List.init 400 (fun k ->
        Printf.sprintf "cx q[%d],q[%d];" (k mod 36) (35 - (k mod 36)))
  in
  let line =
    Printf.sprintf
      {|{"id":"far","device":"grid6x6","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[36];\n%s"}|}
      (String.concat "\\n" cx)
  in
  let answer supervise =
    let out, _ = Serve.run_lines (config ?supervise ()) [ line ] in
    parse_response (List.hd out)
  in
  Alcotest.(check bool) "routes without a deadline" true
    (Json.member "ok" (answer None) = Some (Json.Bool true));
  Alcotest.(check string) "a 1us budget is exceeded" "deadline_exceeded"
    (kind_of
       (answer
          (Some { Supervise.default_config with deadline_s = Some 1e-6 })))

(* The router defers every measurement to the end, so a QASM program
   that measures mid-circuit would come back reordered (here x; x;
   measure, which reads 0 where the input reads 1).  It is refused as
   a bad_request carrying lint rule QL003's message; a terminally
   measured program still routes, and the neighbouring lines keep their
   bytes at any worker count. *)
let test_qasm_mid_circuit_measure_refused () =
  let qasm ~id body =
    Printf.sprintf
      {|{"id":"%s","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n%s","device":"tokyo","qasm_out":true}|}
      id body
  in
  let mid = qasm ~id:"mid" {|x q[0];\nmeasure q[0] -> c[0];\nx q[0];\n|} in
  let terminal = qasm ~id:"end" {|x q[0];\nx q[0];\nmeasure q[0] -> c[0];\n|} in
  let req = List.nth (Lazy.force corpus) in
  let neighbours = [ req 0; req 1; req 2; req 3; terminal ] in
  let lines = [ req 0; req 1; mid; req 2; req 3; terminal ] in
  let reference, _ = Serve.run_lines (config ()) neighbours in
  List.iter
    (fun workers ->
      let cache = Cache.create ~capacity:16 () in
      let out, stats = Serve.run_lines (config ~workers ~cache ()) lines in
      let answer = parse_response (List.nth out 2) in
      Alcotest.(check string) "mid-circuit measure kind" "bad_request"
        (kind_of answer);
      Alcotest.(check bool) "QL003's message" true
        (member_exn "detail" (member_exn "error" answer)
        = Json.String "x q0 touches qubit 0 after its measurement at gate 1");
      Alcotest.(check (list string))
        (Printf.sprintf "%d workers: neighbours keep their bytes" workers)
        reference
        (List.filteri (fun i _ -> i <> 2) out);
      Alcotest.(check bool) "terminal measure still routes" true
        (Json.member "ok" (parse_response (List.nth out 5))
        = Some (Json.Bool true));
      match stats.Serve.cache_stats with
      | None -> Alcotest.fail "cache stats missing"
      | Some s ->
        Alcotest.(check int) "taxonomy balances" s.Cache.lookups
          (s.Cache.hits + s.Cache.misses + s.Cache.rejects))
    [ 1; 4 ]

(* A QASM gate naming one qubit twice is malformed input: the request
   gets a bad_request from the parser, not an internal error from the
   router. *)
let test_qasm_repeated_operand_bad_request () =
  let line =
    {|{"id":"same","qasm":"OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];","device":"tokyo"}|}
  in
  let out, stats = Serve.run_lines (config ()) [ line ] in
  let answer = parse_response (List.hd out) in
  Alcotest.(check string) "kind" "bad_request" (kind_of answer);
  Alcotest.(check bool) "names the gate" true
    (member_exn "detail" (member_exn "error" answer)
    = Json.String "qasm: line 3: cx names qubit 1 twice");
  Alcotest.(check int) "one error" 1 stats.Serve.errors

(* --- persistence --------------------------------------------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "qaoa-test-persist-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let rm_dir dir =
  (try Sys.remove (Filename.concat dir Persist.default_filename)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Kill-and-restart warmth: a journaled run, then a fresh process
   image (new cache) resuming the journal, must answer the whole
   corpus byte-identically with zero recompiles. *)
let test_persist_restart_byte_identical_zero_recompiles () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
  let lines = Lazy.force corpus in
  let c1 = Cache.create ~capacity:64 () in
  let p1 = Persist.open_ ~resume:false ~dir c1 in
  let first, _ = Serve.run_lines (config ~cache:c1 ~persist:p1 ()) lines in
  Persist.finish p1 c1;
  (* restart: nothing survives but the journal *)
  let c2 = Cache.create ~capacity:64 () in
  let p2 = Persist.open_ ~resume:true ~dir c2 in
  let s = Persist.stats p2 in
  Alcotest.(check int) "every artifact reloaded" (List.length lines)
    s.Persist.s_loaded;
  let second, stats = Serve.run_lines (config ~cache:c2 ~persist:p2 ()) lines in
  Persist.finish p2 c2;
  Alcotest.(check (list string)) "responses byte-identical across restart"
    first second;
  match stats.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some s ->
    Alcotest.(check int) "zero recompiles" 0 s.Cache.misses;
    Alcotest.(check int) "warm from disk" (List.length lines) s.Cache.hits

(* A corrupt mid-file record is dropped (and recompiled on demand); a
   torn trailing record is truncated off.  Neither is ever served. *)
let test_persist_corruption_recovery () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
  let lines = Lazy.force corpus in
  let c1 = Cache.create ~capacity:64 () in
  let p1 = Persist.open_ ~resume:false ~dir c1 in
  let first, _ = Serve.run_lines (config ~cache:c1 ~persist:p1 ()) lines in
  let file = Persist.path p1 in
  Persist.close p1;
  (* flip the third record's checksum and append a torn half-record *)
  let ic = open_in_bin file in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let records = String.split_on_char '\n' content in
  let mangled =
    List.mapi
      (fun i r ->
        if i = 2 && String.length r > 0 then
          (if r.[0] = '0' then "1" else "0") ^ String.sub r 1 (String.length r - 1)
        else r)
      records
    |> String.concat "\n"
  in
  let oc = open_out_bin file in
  output_string oc (mangled ^ {|deadbeef {"graph_hash":1,"fing|});
  close_out oc;
  let c2 = Cache.create ~capacity:64 () in
  let p2 = Persist.open_ ~resume:true ~dir c2 in
  let s = Persist.stats p2 in
  Alcotest.(check int) "corrupt record dropped" 1 s.Persist.s_dropped;
  Alcotest.(check int) "torn tail truncated" 1 s.Persist.s_torn_truncated;
  Alcotest.(check int) "the rest reloaded"
    (List.length lines - 1)
    s.Persist.s_loaded;
  let second, stats = Serve.run_lines (config ~cache:c2 ~persist:p2 ()) lines in
  Persist.finish p2 c2;
  (* the drain compacted the dropped record away: drops do not
     accumulate across restarts *)
  let p3 = Persist.open_ ~resume:true ~dir (Cache.create ~capacity:64 ()) in
  let s3 = Persist.stats p3 in
  Persist.close p3;
  Alcotest.(check int) "nothing dropped on the next restart" 0
    s3.Persist.s_dropped;
  Alcotest.(check int) "nothing torn on the next restart" 0
    s3.Persist.s_torn_truncated;
  Alcotest.(check int) "every artifact reloads on the next restart"
    (List.length lines) s3.Persist.s_loaded;
  Alcotest.(check (list string)) "responses byte-identical after corruption"
    first second;
  match stats.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some cs ->
    Alcotest.(check int) "only the dropped record recompiles" 1
      cs.Cache.misses

(* Chaos under serve: a simulated crash on the Nth journal append must
   propagate out of the serving loop (it is a process death, not a
   request failure), and a resumed run must reproduce the reference
   bytes, answering every journaled artifact from the warm cache. *)
let test_chaos_crash_under_serve () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
  let lines = Lazy.force corpus in
  let reference, _ = Serve.run_lines (config ()) lines in
  let c1 = Cache.create ~capacity:64 () in
  let p1 = Persist.open_ ~resume:false ~dir c1 in
  Chaos.set_plan
    (Some { Chaos.action = Chaos.Crash_after 5; mode = Chaos.Raise });
  (match Serve.run_lines (config ~cache:c1 ~persist:p1 ()) lines with
  | _ -> Alcotest.fail "injected crash must propagate, not be contained"
  | exception Chaos.Injected _ -> ());
  Chaos.set_plan None;
  Persist.close p1;
  let c2 = Cache.create ~capacity:64 () in
  let p2 = Persist.open_ ~resume:true ~dir c2 in
  let s = Persist.stats p2 in
  Alcotest.(check bool)
    (Printf.sprintf "the crash-surviving prefix reloads (%d records)"
       s.Persist.s_loaded)
    true
    (s.Persist.s_loaded >= 5);
  let second, stats = Serve.run_lines (config ~cache:c2 ~persist:p2 ()) lines in
  Persist.finish p2 c2;
  Alcotest.(check (list string)) "resumed run reproduces reference bytes"
    reference second;
  match stats.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some cs ->
    Alcotest.(check int) "journaled artifacts never recompile"
      s.Persist.s_loaded cs.Cache.hits;
    Alcotest.(check int) "the rest recompile once"
      (List.length lines - s.Persist.s_loaded)
      cs.Cache.misses

(* --- daemon -------------------------------------------------------- *)

(* Round-trip through the Unix-socket daemon: same bytes as the batch
   path, responses in request order, graceful drain on the flag. *)
let test_daemon_roundtrip () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qaoa-test-daemon-%d.sock" (Unix.getpid ()))
  in
  let lines = List.filteri (fun i _ -> i < 6) (Lazy.force corpus) in
  let reference, _ = Serve.run_lines (config ()) lines in
  let drain = Atomic.make 0 in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (config ~cache:(Cache.create ~capacity:64 ()) ())
          ~socket_path:sock ~drain)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon never became ready";
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let payload = String.concat "\n" lines ^ "\n" in
  let rec wr off len =
    if len > 0 then begin
      let n = Unix.write_substring fd payload off len in
      wr (off + n) (len - n)
    end
  in
  wr 0 (String.length payload);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec rd () =
    match Unix.read fd bytes 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf bytes 0 n;
      rd ()
  in
  rd ();
  Unix.close fd;
  Atomic.set drain 143;
  let stats = Domain.join daemon in
  let out =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun s -> s <> "")
  in
  Alcotest.(check (list string)) "daemon bytes = batch bytes" reference out;
  Alcotest.(check int) "all requests counted" (List.length lines)
    stats.Serve.requests;
  Alcotest.(check bool) "socket file removed on drain" true
    (not (Sys.file_exists sock))

let test_gen_corpus_deterministic () =
  let a = Serve.gen_corpus ~seed:5 ~count:12 () in
  let b = Serve.gen_corpus ~seed:5 ~count:12 () in
  let c = Serve.gen_corpus ~seed:6 ~count:12 () in
  Alcotest.(check (list string)) "same seed, same corpus" a b;
  Alcotest.(check bool) "different seed, different corpus" true (a <> c);
  List.iter
    (fun line ->
      match Request.of_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "generated corpus line rejected: %s" e)
    a

(* --- daemon client ------------------------------------------------- *)

(* Daemon.Client against a live daemon: framed request/reply, the ping
   and stats control verbs over the wire, request/await latency (a
   finished job must wake the daemon's select loop rather than wait out
   its poll timeout), a drain of an idle daemon, and the connect
   deadline. *)
let test_daemon_client_roundtrip () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qaoa-test-client-%d.sock" (Unix.getpid ()))
  in
  let lines = List.filteri (fun i _ -> i < 3) (Lazy.force corpus) in
  let reference, _ = Serve.run_lines (config ()) lines in
  let drain = Atomic.make 0 in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (config ~cache:(Cache.create ~capacity:64 ()) ())
          ~socket_path:sock ~drain)
  in
  let joined = ref false in
  let join () =
    if not !joined then begin
      joined := true;
      ignore (Domain.join daemon)
    end
  in
  Fun.protect ~finally:(fun () ->
      Atomic.compare_and_set drain 0 143 |> ignore;
      join ())
  @@ fun () ->
  let c = Daemon.Client.connect ~timeout_s:10.0 sock in
  Alcotest.(check (option string))
    "ping pongs"
    (Some {|{"id":null,"ok":true,"op":"ping"}|})
    (Daemon.Client.request c {|{"op":"ping"}|});
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 50 do
    ignore (Daemon.Client.request c {|{"op":"ping"}|})
  done;
  let pings_s = Unix.gettimeofday () -. t0 in
  if pings_s >= 1.0 then
    Alcotest.failf "50 sequential pings took %.2fs (limit 1s)" pings_s;
  List.iteri
    (fun i line ->
      Alcotest.(check (option string))
        (Printf.sprintf "request %d matches the batch bytes" i)
        (Some (List.nth reference i))
        (Daemon.Client.request c line))
    lines;
  (match Daemon.Client.request c {|{"op":"stats"}|} with
  | None -> Alcotest.fail "no stats reply"
  | Some reply -> (
    match Json.of_string_opt reply with
    | Some (Json.Assoc fields) -> (
      Alcotest.(check bool)
        "stats ok" true
        (List.assoc_opt "ok" fields = Some (Json.Bool true));
      Alcotest.(check bool)
        "inflight counts the stats request itself" true
        (List.assoc_opt "inflight" fields = Some (Json.Int 1));
      match List.assoc_opt "cache" fields with
      | Some (Json.Assoc cache) ->
        let n k =
          match List.assoc_opt k cache with
          | Some (Json.Int v) -> v
          | _ -> Alcotest.failf "stats cache missing %s" k
        in
        Alcotest.(check int) "taxonomy balances over the wire" (n "lookups")
          (n "hits" + n "misses" + n "rejects")
      | _ -> Alcotest.fail "stats reply has no cache object")
    | _ -> Alcotest.fail "stats reply is not a json object"));
  Daemon.Client.close c;
  (* the select timeout is the drain flag's backstop: an idle daemon
     must still notice it *)
  let t0 = Unix.gettimeofday () in
  Atomic.set drain 143;
  join ();
  let drain_s = Unix.gettimeofday () -. t0 in
  if drain_s >= 0.5 then
    Alcotest.failf "idle daemon took %.2fs to drain (limit 0.5s)" drain_s;
  (* nothing listens here: the deadline must fire, not hang *)
  match
    Daemon.Client.connect ~timeout_s:0.2
      (Filename.concat (Filename.get_temp_dir_name ()) "qaoa-no-such.sock")
  with
  | _ -> Alcotest.fail "connect to a dead path should time out"
  | exception Daemon.Client.Timeout _ -> ()

(* Lines at and over [Serve.max_line_bytes]: a line of exactly the cap
   reaches the parser, one byte more is one bad_request in its own
   position, and the connection carries on; an over-long line that
   never ends is answered all the same. *)
let test_daemon_line_cap () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qaoa-test-cap-%d.sock" (Unix.getpid ()))
  in
  let drain = Atomic.make 0 in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (config ~cache:(Cache.create ~capacity:64 ()) ())
          ~socket_path:sock ~drain)
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set drain 143;
      ignore (Domain.join daemon))
  @@ fun () ->
  let c = Daemon.Client.connect ~timeout_s:10.0 sock in
  let reply line =
    match Daemon.Client.request c line with
    | Some r -> r
    | None -> Alcotest.fail "daemon closed the connection"
  in
  let cap = Serve.max_line_bytes in
  let at_cap = reply (String.make cap 'x') in
  Alcotest.(check bool)
    "a line at the cap is parsed" true
    (contains_substring ~sub:"malformed JSON" at_cap
    && contains_substring ~sub:{|"line":1,|} at_cap);
  let over = reply (String.make (cap + 1) 'x') in
  Alcotest.(check bool)
    "one byte over is a bad_request in its own position" true
    (contains_substring ~sub:{|"kind":"bad_request"|} over
    && contains_substring ~sub:"longer than" over
    && contains_substring ~sub:{|"line":2,|} over);
  Alcotest.(check string)
    "the connection carries on" {|{"id":null,"ok":true,"op":"ping"}|}
    (reply {|{"op":"ping"}|});
  Alcotest.(check bool)
    "and numbers its next line 4" true
    (contains_substring ~sub:{|"line":4,|} (reply "x"));
  Daemon.Client.close c;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let unterminated = String.make (cap + 4096) 'x' in
  let rec wr off =
    if off < String.length unterminated then
      wr (off + Unix.write_substring fd unterminated off
                  (String.length unterminated - off))
  in
  wr 0;
  let buf = Buffer.create 256 and b = Bytes.create 256 in
  let rec rd () =
    if not (String.contains (Buffer.contents buf) '\n') then
      match Unix.read fd b 0 256 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf b 0 n;
        rd ()
  in
  rd ();
  Alcotest.(check bool)
    "an unterminated over-long line is answered" true
    (contains_substring ~sub:{|"line":1,|} (Buffer.contents buf)
    && contains_substring ~sub:"longer than" (Buffer.contents buf))

(* [Serve.run] over a channel holding exactly [input]. *)
let serve_batch ~workers input =
  let path = Filename.temp_file "qaoa-batch" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc input);
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let out = Filename.temp_file "qaoa-batch" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  Out_channel.with_open_bin out (fun oc ->
      ignore (Serve.run (config ~workers ~cache:(Cache.create ~capacity:64 ()) ()) ic oc));
  In_channel.with_open_bin out In_channel.input_all

(* Batch input is framed as a daemon connection is: a line of exactly
   the cap reaches the parser, one byte more gets the daemon's detail
   under its own line number, and the requests around it answer as if
   it were not there, at any worker count. *)
let test_batch_line_cap () =
  let cap = Serve.max_line_bytes in
  let reqs = Serve.gen_corpus ~seed:5 ~count:2 () in
  let input =
    String.concat "\n"
      [ List.nth reqs 0; String.make cap 'x'; String.make (cap + 1) 'x'; List.nth reqs 1 ]
    ^ "\n"
  in
  let out = serve_batch ~workers:1 input in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "one response per line" 4 (List.length lines - 1);
  Alcotest.(check bool) "a line at the cap is parsed" true
    (contains_substring ~sub:"malformed JSON" (List.nth lines 1)
    && contains_substring ~sub:{|"line":2,|} (List.nth lines 1));
  Alcotest.(check string) "one byte over gets the daemon's detail"
    {|{"id":null,"ok":false,"line":3,"error":{"kind":"bad_request","detail":"line longer than 4194304 bytes (discarded up to its newline)"}}|}
    (List.nth lines 2);
  let alone, _ = Serve.run_lines (config ()) reqs in
  Alcotest.(check (list string)) "neighbours unchanged" alone
    [ List.nth lines 0; List.nth lines 3 ];
  Alcotest.(check string) "same bytes at 4 workers" out (serve_batch ~workers:4 input)

(* An unterminated last line is a line, in batch mode and through the
   daemon alike. *)
let test_unterminated_last_line () =
  let input = {|{"op":"ping"}|} ^ "\n" ^ {|{"op":"ping"}|} in
  let pong = {|{"id":null,"ok":true,"op":"ping"}|} in
  Alcotest.(check string) "batch answers both"
    (pong ^ "\n" ^ pong ^ "\n") (serve_batch ~workers:1 input);
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qaoa-test-eof-%d.sock" (Unix.getpid ()))
  in
  let drain = Atomic.make 0 in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (config ()) ~socket_path:sock ~drain)
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set drain 143;
      ignore (Domain.join daemon))
  @@ fun () ->
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  ignore (Unix.write_substring fd input 0 (String.length input));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 128 and b = Bytes.create 128 in
  let rec rd () =
    match Unix.read fd b 0 128 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf b 0 n;
      rd ()
  in
  rd ();
  Alcotest.(check string) "the daemon answers both"
    (pong ^ "\n" ^ pong ^ "\n") (Buffer.contents buf)

(* The control verbs through the ordinary serving path: ping is the
   canonical pong, stats balances the taxonomy, junk ops and extra
   fields are structured bad_requests.  Each line is parsed once, and
   that one value decides control verb or request, so the last five
   lines pin every way of failing there byte for byte. *)
let test_control_verbs () =
  let lines =
    [
      {|{"op":"ping"}|};
      List.nth (Lazy.force corpus) 0;
      {|{"op":"stats"}|};
      {|{"op":"reboot"}|};
      {|{"op":"ping","x":1}|};
      {|{"op":7}|};
      "not json";
      "[1,2]";
    ]
  in
  let out, stats =
    Serve.run_lines (config ~cache:(Cache.create ~capacity:16 ()) ()) lines
  in
  Alcotest.(check int) "every line answered" 8 (List.length out);
  Alcotest.(check string)
    "canonical pong"
    {|{"id":null,"ok":true,"op":"ping"}|}
    (List.nth out 0);
  (match Json.of_string_opt (List.nth out 2) with
  | Some (Json.Assoc fields) -> (
    Alcotest.(check bool)
      "stats op echoed" true
      (List.assoc_opt "op" fields = Some (Json.String "stats"));
    match List.assoc_opt "cache" fields with
    | Some (Json.Assoc cache) ->
      let n k =
        match List.assoc_opt k cache with
        | Some (Json.Int v) -> v
        | _ -> Alcotest.failf "stats cache missing %s" k
      in
      Alcotest.(check int) "one lookup so far" 1 (n "lookups");
      Alcotest.(check int) "taxonomy balances" (n "lookups")
        (n "hits" + n "misses" + n "rejects")
    | _ -> Alcotest.fail "stats without a cache object")
  | _ -> Alcotest.fail "stats reply is not a json object");
  let bad_request line detail =
    Printf.sprintf
      {|{"id":null,"ok":false,"line":%d,"error":{"kind":"bad_request","detail":%s}}|}
      line
      (Json.to_string (Json.String detail))
  in
  Alcotest.(check (list string))
    "structured bad_requests"
    [
      bad_request 4 {|unknown op "reboot" (expected "ping" or "stats")|};
      bad_request 5 {|control request carries fields besides "op"|};
      bad_request 6 {|field "op" must be a string|};
      bad_request 7 "malformed JSON";
      bad_request 8 "request must be a JSON object";
    ]
    (List.filteri (fun i _ -> i >= 3) out);
  Alcotest.(check int) "five structured errors" 5 stats.Serve.errors

(* --- cross-domain compile equivalence ------------------------------ *)

(* 50 compiles fanned across 4 domains, every artifact checked against
   the translation-validation oracle.  Small graphs keep the statevector
   stage in play. *)
let test_cross_domain_compile_equivalence () =
  let device = Option.get (Topologies.by_name "tokyo") in
  let strategies =
    [| Compile.Naive; Compile.Greedy_v; Compile.Greedy_e; Compile.Qaim;
       Compile.Ip; Compile.Ic None |]
  in
  let cases =
    Array.init 50 (fun i ->
        let rng = Rng.create (1000 + i) in
        let n = 5 + (i mod 4) in
        let rec draw () =
          let g = Generators.erdos_renyi rng ~n ~p:0.5 in
          if Graph.num_edges g = 0 then draw () else g
        in
        (i, n, draw (), strategies.(i mod Array.length strategies)))
  in
  let reports = Array.make (Array.length cases) None in
  let next = ref 0 in
  let produce () =
    if !next >= Array.length cases then None
    else begin
      incr next;
      Some cases.(!next - 1)
    end
  in
  let processed =
    Pool.stream ~workers:4 ~produce
      ~consume:(fun seq report -> reports.(seq) <- Some report)
      (fun (i, _n, g, strategy) ->
        let problem = Problem.of_maxcut g in
        let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
        let options = { Compile.default_options with seed = 100 + i } in
        match Compile.compile_result ~options ~strategy device problem params with
        | Error e -> (i, strategy, Error (Compile.error_to_string e))
        | Ok r ->
          let logical = Ansatz.circuit ~measure:true problem params in
          let report =
            Check.validate ~device ~initial:r.Compile.initial_mapping
              ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count
              ~logical r.Compile.circuit
          in
          (i, strategy, Ok report))
  in
  Alcotest.(check int) "every case processed" (Array.length cases) processed;
  Array.iter
    (fun report ->
      let i, strategy, outcome = Option.get report in
      match outcome with
      | Error e ->
        Alcotest.failf "case %d (%s) failed to compile: %s" i
          (Compile.strategy_name strategy)
          e
      | Ok report ->
        if not (Check.ok report) then
          Alcotest.failf "case %d (%s) failed validation:\n%s" i
            (Compile.strategy_name strategy)
            (Check.report_to_string report))
    reports

let suite =
  [
    ("pool stream emits in submission order", `Quick, test_pool_stream_ordered);
    ( "pool stream propagates job exceptions",
      `Quick,
      test_pool_stream_propagates_job_exception );
    ( "pool stream_poll wakes on completion",
      `Quick,
      test_pool_stream_poll_wakes_on_complete );
    ( "rng split independent of parent draws",
      `Quick,
      test_split_independent_of_draw_position );
    ("rng split streams distinct", `Quick, test_split_streams_distinct);
    ("request normalization", `Quick, test_request_normalization);
    ("request rejections", `Quick, test_request_rejections);
    ("cache lru eviction", `Quick, test_cache_lru_eviction);
    ("cache lookup taxonomy balances", `Quick, test_cache_lookup_taxonomy);
    ("n-domain determinism", `Slow, test_ndomain_determinism);
    ("cache hits are byte-identical", `Slow, test_cache_hit_byte_equality);
    ( "analyze attaches a cached static record",
      `Quick,
      test_analyze_attaches_static_record );
    ( "malformed requests are structured errors",
      `Quick,
      test_malformed_requests_are_structured_errors );
    ( "non-finite floats rejected at parse",
      `Quick,
      test_request_rejects_nonfinite_floats );
    ("serve-level taxonomy balances", `Quick, test_serve_taxonomy_balances);
    ("retry and containment", `Slow, test_retry_and_containment);
    ( "uncalibrated vic is missing_calibration",
      `Quick,
      test_uncalibrated_vic_is_missing_calibration );
    ( "qasm route honours the deadline",
      `Quick,
      test_qasm_route_honours_deadline );
    ( "qasm repeated operand is a bad request",
      `Quick,
      test_qasm_repeated_operand_bad_request );
    ( "qasm mid-circuit measure refused",
      `Quick,
      test_qasm_mid_circuit_measure_refused );
    ( "persisted cache restarts byte-identical",
      `Slow,
      test_persist_restart_byte_identical_zero_recompiles );
    ("persist corruption recovery", `Slow, test_persist_corruption_recovery);
    ("chaos crash under serve", `Slow, test_chaos_crash_under_serve);
    ("daemon socket roundtrip", `Slow, test_daemon_roundtrip);
    ("daemon client roundtrip", `Slow, test_daemon_client_roundtrip);
    ("daemon line cap", `Slow, test_daemon_line_cap);
    ("batch line cap", `Slow, test_batch_line_cap);
    ("unterminated last line", `Quick, test_unterminated_last_line);
    ("control verbs", `Quick, test_control_verbs);
    ("gen_corpus deterministic", `Quick, test_gen_corpus_deterministic);
    ( "cross-domain compile equivalence",
      `Slow,
      test_cross_domain_compile_equivalence );
  ]
