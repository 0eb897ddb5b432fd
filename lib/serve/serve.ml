module Json = Qaoa_obs.Json
module Trace = Qaoa_obs.Trace
module Clock = Qaoa_obs.Clock
module Metrics_registry = Qaoa_obs.Metrics_registry
module Compile = Qaoa_core.Compile
module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng

type config = {
  workers : int;
  queue_capacity : int;
  timings : bool;
  cache : Cache.t option;
  persist : Persist.t option;
  supervise : Supervise.config;
  drain : int Atomic.t option;
  inflight : int Atomic.t;
}

let default_config () =
  {
    workers = Pool.default_workers ();
    queue_capacity = 256;
    timings = false;
    cache = Some (Cache.create ~capacity:4096 ());
    persist = None;
    supervise = Supervise.default_config;
    drain = None;
    inflight = Atomic.make 0;
  }

type stats = {
  requests : int;
  errors : int;
  cache_stats : Cache.stats option;
}

(* Above the largest request a client should send: a K256 graph is
   about 0.3 MB of JSON, and the p = 1 K256 ansatz as a QASM request
   about 1.8 MB. *)
let max_line_bytes = 4 * 1024 * 1024

(* Line framing for batch input and both ends of the daemon's socket.
   Each [feed] scans only the bytes just read, so framing is linear in
   the bytes received.  A line longer than [max_line] is reported once,
   as soon as it overflows, and then skipped up to its newline; nothing
   of it is kept. *)
module Framer = struct
  type t = {
    max_line : int;
    line : Buffer.t;  (** the current line's bytes so far *)
    mutable skipping : bool;  (** inside an over-long line, reported *)
  }

  let create ~max_line =
    { max_line; line = Buffer.create 256; skipping = false }

  let rec newline b pos stop =
    if pos >= stop || Bytes.unsafe_get b pos = '\n' then pos
    else newline b (pos + 1) stop

  (* Frame [len] bytes of [b] from [off]: [emit (Some line)] for each
     complete line, [emit None] once for each over-long one.  A
     trailing fragment waits for the next feed. *)
  let feed t b off len emit =
    let stop = off + len in
    let rec go pos =
      if pos < stop then begin
        let nl = newline b pos stop in
        if not t.skipping then
          if Buffer.length t.line + (nl - pos) > t.max_line then begin
            Buffer.reset t.line;
            t.skipping <- true;
            emit None
          end
          else Buffer.add_subbytes t.line b pos (nl - pos);
        if nl < stop then begin
          if not t.skipping then emit (Some (Buffer.contents t.line));
          Buffer.clear t.line;
          t.skipping <- false
        end;
        go (nl + 1)
      end
    in
    go off

  (* End of input: an unterminated last line is still a line.  An
     over-long one was reported when it passed the cap. *)
  let finish t emit =
    if (not t.skipping) && Buffer.length t.line > 0 then
      emit (Some (Buffer.contents t.line));
    Buffer.clear t.line;
    t.skipping <- false
end

(* One processed line, ready to render. *)
type outcome = {
  id : string option;  (** [None] = the line never parsed *)
  line : int;  (** 1-based input line number *)
  body : (string * Json.t) list;
  cached : bool;
  ms : float;
}

let outcome_error o = Supervise.is_error o.body

(* Control-verb bodies.  [stats] snapshots the cache-lookup taxonomy
   and the in-flight gauge so a supervisor (or CI) can assert
   [lookups = hits + misses + rejects] per process over the wire. *)
let stats_body cache inflight =
  let cache_json =
    match cache with
    | None -> Json.Null
    | Some c ->
      let s = Cache.stats c in
      Json.Assoc
        [
          ("lookups", Json.Int s.Cache.lookups);
          ("hits", Json.Int s.Cache.hits);
          ("misses", Json.Int s.Cache.misses);
          ("rejects", Json.Int s.Cache.rejects);
          ("inserts", Json.Int s.Cache.inserts);
          ("evictions", Json.Int s.Cache.evictions);
          ("reloaded", Json.Int s.Cache.reloaded);
          ("size", Json.Int s.Cache.size);
        ]
  in
  [
    ("ok", Json.Bool true); ("op", Json.String "stats");
    ("inflight", Json.Int (Atomic.get inflight)); ("cache", cache_json);
  ]

let finish ~t0 ~line_no ?id ?(cached = false) body =
  if Supervise.is_error body then Metrics_registry.incr "serve.errors";
  let ms = 1e3 *. (Clock.wall () -. t0) in
  Metrics_registry.observe "serve.request_ms" ms;
  { id; line = line_no; body; cached; ms }

let bad_request ~t0 ~line_no msg =
  finish ~t0 ~line_no
    (Supervise.error_body
       ~extra:[ ("line", Json.Int line_no) ]
       ~kind:"bad_request" msg)

(* An over-long line never reaches the parser, but counts as a request,
   as a line of malformed JSON does. *)
let too_long line_no =
  Metrics_registry.incr "serve.requests";
  bad_request ~t0:(Clock.wall ()) ~line_no
    (Printf.sprintf "line longer than %d bytes (discarded up to its newline)"
       max_line_bytes)

(* The full supervised path for one input line: parse it once, answer
   a control verb or validate the same value as a request, answer from
   the cache when possible, otherwise compute under {!Supervise.handle}
   (containment, retry), then settle the cache taxonomy -
   every missed lookup ends in exactly one store or reject, which is
   what keeps [lookups = hits + misses + rejects] an invariant.  A
   [Stored] insertion is journaled before the response is visible, so
   a crash never leaves a served-but-unpersisted artifact ahead of the
   journal. *)
let handle sup devices cache persist inflight (line_no, line) =
  Trace.with_span "serve.request" @@ fun () ->
  let t0 = Clock.wall () in
  let finish = finish ~t0 ~line_no in
  let bad_request = bad_request ~t0 ~line_no in
  let json = Json.of_string_opt line in
  match Option.bind json Request.control_of_json with
  | Some ctl -> (
    (* control verbs are not requests: no [serve.requests] count, no
       cache interaction - the lookup taxonomy stays balanced *)
    match ctl with
    | Error msg -> bad_request msg
    | Ok Request.Ping ->
      finish [ ("ok", Json.Bool true); ("op", Json.String "ping") ]
    | Ok Request.Stats -> finish (stats_body cache inflight))
  | None -> (
  Metrics_registry.incr "serve.requests";
  match Option.fold ~none:(Error "malformed JSON") ~some:Request.of_json json with
  | Error msg -> bad_request msg
  | Ok req -> (
    let id = req.Request.id in
    match cache with
    | None ->
      let v = Supervise.handle sup devices req in
      finish ~id v.Supervise.body
    | Some c -> (
      let key = Request.cache_key req in
      match Cache.find c key with
      | Some body -> finish ~id ~cached:true body
      | None ->
        let v = Supervise.handle sup devices req in
        (if v.Supervise.cacheable then begin
           match Cache.store c key v.Supervise.body with
           | Cache.Stored ->
             Option.iter (fun p -> Persist.append p key v.Supervise.body) persist
           | Cache.Duplicate | Cache.Oversized -> ()
         end
         else Cache.reject c);
        finish ~id v.Supervise.body)))

let make_handler config =
  if config.workers < 1 then invalid_arg "Serve: workers must be >= 1";
  if config.queue_capacity < 1 then
    invalid_arg "Serve: queue_capacity must be >= 1";
  let devices = Supervise.Devices.create () in
  Supervise.Devices.prewarm devices;
  let sup = Supervise.create config.supervise in
  let handle = handle sup devices config.cache config.persist config.inflight in
  function
  | line_no, Some line -> handle (line_no, line)
  | line_no, None -> too_long line_no

let render config outcome =
  let id_json =
    match outcome.id with Some s -> Json.String s | None -> Json.Null
  in
  let diagnostics =
    if config.timings then
      [
        ("cached", Json.Bool outcome.cached); ("ms", Json.Float outcome.ms);
      ]
    else []
  in
  Json.to_string (Json.Assoc (("id", id_json) :: outcome.body @ diagnostics))

let serve config ~produce ~emit =
  let handler = make_handler config in
  (* a delivered SIGINT/SIGTERM stops admission: in-flight requests
     finish and are emitted in order, then the run winds down *)
  let produce =
    match config.drain with
    | None -> produce
    | Some flag -> fun () -> if Atomic.get flag <> 0 then None else produce ()
  in
  let requests = ref 0 and errors = ref 0 in
  let consume _seq outcome =
    incr requests;
    if outcome_error outcome then incr errors;
    emit (render config outcome)
  in
  let _count =
    Pool.stream ~workers:config.workers ~queue_capacity:config.queue_capacity
      ~produce ~consume handler
  in
  {
    requests = !requests;
    errors = !errors;
    cache_stats = Option.map Cache.stats config.cache;
  }

let run config ic oc =
  let framer = Framer.create ~max_line:max_line_bytes in
  let buf = Bytes.create 4096 in
  let framed = Queue.create () and line_no = ref 0 and eof = ref false in
  let emit line =
    incr line_no;
    Queue.add (!line_no, line) framed
  in
  let rec produce () =
    match Queue.take_opt framed with
    | Some item -> Some item
    | None when !eof -> None
    | None ->
      (match input ic buf 0 (Bytes.length buf) with
      | 0 ->
        eof := true;
        Framer.finish framer emit
      | n -> Framer.feed framer buf 0 n emit);
      produce ()
  in
  let stats =
    serve config ~produce ~emit:(fun line ->
        output_string oc line;
        output_char oc '\n')
  in
  flush oc;
  stats

let run_lines config lines =
  let remaining = ref lines in
  let line_no = ref 0 in
  let produce () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      incr line_no;
      Some (!line_no, if String.length l > max_line_bytes then None else Some l)
  in
  let out = ref [] in
  let stats = serve config ~produce ~emit:(fun line -> out := line :: !out) in
  (List.rev !out, stats)

(* ------------------------------------------------------------------ *)

let gen_corpus ?(device = "tokyo") ~seed ~count () =
  let policies = [| "naive"; "greedyv"; "greedye"; "qaim"; "ip"; "ic" |] in
  let probs = [| 0.3; 0.5; 0.7 |] in
  List.init count (fun i ->
      let rng = Rng.create (seed + (7919 * i)) in
      let n = 12 + (i mod 7) in
      let p = probs.(i mod Array.length probs) in
      (* redraw edgeless graphs - an empty cost layer is a request
         error by construction *)
      let rec draw () =
        let g = Generators.erdos_renyi rng ~n ~p in
        if Graph.num_edges g = 0 then draw () else g
      in
      let g = draw () in
      let policy =
        Option.get
          (Compile.strategy_of_string policies.(i mod Array.length policies))
      in
      let req =
        {
          Request.id = Printf.sprintf "req-%04d" i;
          source = Request.Graph { n; edges = Graph.edges g };
          device;
          policy;
          seed = seed + i;
          p = 1;
          gamma = 0.7;
          beta = 0.4;
          measure = true;
          verify = i mod 5 = 0;
          analyze = i mod 7 = 0;
          qasm_out = false;
        }
      in
      Json.to_string (Request.to_json req))
