(* The two serving workloads, both driving the real [qaoa-serve] binary
   as a subprocess:

   - [serve-batch-cold]: one [-i FILE -o FILE --workers 2] batch over
     distinct requests, far more than the 4096-entry cache holds, so no
     request shares work and every insert past the 4096th evicts.
   - [serve-daemon-warm]: a [--daemon] restarted on a journal primed
     with a 512-request hot set, driven for [--seconds] over 2
     connections from this one thread.  4 of every 5 requests walk a
     seeded shuffle of the hot set round-robin and always hit; the 5th
     is fresh and misses.  Hot keys recur every 640 requests, so LRU
     always evicts one-shot keys first and the hit rate stays at 80%
     however fast the daemon is.

   The traced run replays the identical request sequence in this
   process on one domain, with spans around each public call of the
   serving layer, and checks its rendered lines against the
   subprocess's byte for byte. *)

module Json = Qaoa_obs.Json
module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Topologies = Qaoa_hardware.Topologies
module Metrics = Qaoa_circuit.Metrics
module Rng = Qaoa_util.Rng
module Request = Qaoa_serve.Request
module Cache = Qaoa_serve.Cache
module Persist = Qaoa_serve.Persist
module Supervise = Qaoa_serve.Supervise
module Dataflow = Qaoa_analysis.Dataflow

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Requests *)

type req = {
  id : string;
  line : string;
  n : int;
  edges : (int * int) list;
  policy : Compile.strategy;
  seed : int;
  verify : bool;
}

let policies = [| "naive"; "greedyv"; "greedye"; "qaim"; "ip"; "ic" |]
let densities = [| 0.3; 0.5; 0.7 |]

(* Request [i] of stream [stream]: an ER graph on tokyo with n = 12-20,
   the calibration-free policies in rotation, every 5th verified, none
   analyzed.  The mix is stratified by [i]; only the graphs and seeds
   depend on the workload seed. *)
let request ~seed ~tag ~stream i =
  let n = 12 + (i mod 9) in
  let policy = policies.(i / 9 mod Array.length policies) in
  let p = densities.(i / 54 mod Array.length densities) in
  let key = (stream * 10_000_019) + i in
  let rng = Rng.create (Compile_wl.mix seed key) in
  let rec draw () =
    let g = Generators.erdos_renyi rng ~n ~p in
    if Graph.num_edges g = 0 then draw () else g
  in
  let edges = Graph.edges (draw ()) in
  let id = Printf.sprintf "%s-%d" tag i in
  let req_seed = Compile_wl.mix (seed + 2) key in
  let verify = i mod 5 = 0 in
  let edge (u, v) = Json.List [ Json.Int u; Json.Int v ] in
  let line =
    Json.to_string
      (Json.Assoc
         [
           ("id", Json.String id);
           ( "graph",
             Json.Assoc [ ("n", Json.Int n); ("edges", Json.List (List.map edge edges)) ] );
           ("device", Json.String "tokyo");
           ("policy", Json.String policy);
           ("seed", Json.Int req_seed);
           ("p", Json.Int 1);
           ("gamma", Json.Float 0.7);
           ("beta", Json.Float 0.4);
           ("verify", Json.Bool verify);
         ])
  in
  let policy = Option.get (Compile.strategy_of_string policy) in
  { id; line; n; edges; policy; seed = req_seed; verify }

let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4

let digest_lines lines =
  Digest.to_hex (Array.fold_left (fun d l -> Digest.string (d ^ l)) (Digest.string "") lines)

(* ------------------------------------------------------------------ *)
(* Responses *)

let field name json = Json.member name json
let int_field name json = Option.map int_of_float (Option.bind (field name json) Json.to_float)

(* A successful compile response for [req]: it parses, answers the
   right id, and says ok. *)
let check_response (req : req) line =
  match Json.of_string_opt line with
  | None -> Error "unparseable response"
  | Some json ->
    if field "id" json <> Some (Json.String req.id) then Error "response for another id"
    else if field "ok" json <> Some (Json.Bool true) then Error ("not ok: " ^ line)
    else Ok json

(* The batch runs with --timings, which appends ["cached"] and ["ms"]
   last; cutting them leaves exactly the line a run without it prints. *)
let strip_timings line =
  let marker = ",\"cached\":" in
  let m = String.length marker in
  let rec from i =
    if i < 0 then line
    else if String.sub line i m = marker then String.sub line 0 i ^ "}"
    else from (i - 1)
  in
  from (String.length line - m)

(* The direct-compile check: compile the request's problem directly,
   match the response's depth, gates and swaps against it, validate it,
   and return depth over its commutation lower bound. *)
let direct_check tokyo (req : req) json =
  let problem = Problem.of_maxcut (Graph.of_edges req.n req.edges) in
  let options =
    { Compile.default_options with seed = req.seed; verify = req.verify; analyze = true }
  in
  match Compile.compile_result ~options ~strategy:req.policy tokyo problem params with
  | Error e -> Error ("direct compile failed: " ^ Compile.error_to_string e)
  | Ok r -> (
    let m = r.Compile.metrics in
    let same name v = int_field name json = Some v in
    if
      not
        (same "depth" m.Metrics.depth
        && same "gates" m.Metrics.gate_count
        && same "swaps" r.Compile.swap_count)
    then Error "response differs from a direct compile"
    else
      match Compile_wl.validate ~device:tokyo ~problem ~measure:true ~params r with
      | Error why -> Error ("direct compile rejected: " ^ why)
      | Ok () -> (
        match r.Compile.static with
        | Some s when s.Dataflow.lower_bound >= 1 ->
          Ok (float_of_int m.Metrics.depth /. float_of_int s.Dataflow.lower_bound)
        | _ -> Error "no lower bound"))

(* ------------------------------------------------------------------ *)
(* In-process replay *)

type replayer = {
  serve : string -> string;  (** one request line in, one response line out *)
  cache : Cache.t;
  persist : Persist.t option;
  prewarm_s : float;
  reload_s : float;
  reloaded : int;
  mutable chunks : float list;  (** seconds per replayed chunk, newest first *)
}

(* A fresh serving state that answers lines through the same public
   calls [Serve] makes for each line, with the CLI's default
   supervision.  [journal], when given, is a directory holding a primed
   cache journal to resume from, as the daemon does. *)
let replayer ~(tracer : Span.tracer) ~capacity ?journal () =
  let cache = Cache.create ~capacity () in
  let devices = Supervise.Devices.create () in
  let t0 = now () in
  Supervise.Devices.prewarm devices;
  let prewarm_s = now () -. t0 in
  let t0 = now () in
  let persist = Option.map (fun dir -> Persist.open_ ~resume:true ~dir cache) journal in
  let reload_s = now () -. t0 in
  let reloaded = match persist with Some p -> (Persist.stats p).Persist.s_loaded | None -> 0 in
  let sup = Supervise.create Supervise.default_config in
  let span = tracer.span in
  let compute req key =
    let v = span "serve.supervise.handle" (fun () -> Supervise.handle sup devices req) in
    let body = v.Supervise.body in
    (if v.Supervise.cacheable then
       match span "serve.cache.store" (fun () -> Cache.store cache key body) with
       | Cache.Stored ->
         Option.iter
           (fun p -> span "serve.persist.append" (fun () -> Persist.append p key body))
           persist
       | Cache.Duplicate | Cache.Oversized -> ()
     else Cache.reject cache);
    body
  in
  let serve_line line =
    match span "serve.request.parse" (fun () -> Request.of_line line) with
    | Error msg -> "bad request: " ^ msg
    | Ok req ->
      let key = span "serve.request.cache_key" (fun () -> Request.cache_key req) in
      let body =
        match span "serve.cache.find" (fun () -> Cache.find cache key) with
        | Some body -> body
        | None -> compute req key
      in
      span "serve.render" (fun () ->
          Json.to_string (Json.Assoc (("id", Json.String req.Request.id) :: body)))
  in
  let serve line = span "bench.request" (fun () -> serve_line line) in
  { serve; cache; persist; prewarm_s; reload_s; reloaded; chunks = [] }

let replay_chunk = 250

(* Replay [lines] in this process, untraced and traced side by side,
   each from a fresh state (and a fresh copy of the [journal] file).
   They alternate chunk by chunk, so the host's drifting speed does not
   swamp the tracing overhead.  Both must reproduce [expected].  Returns
   the spans, the serve-stage metrics, the per-request p50 in seconds
   and the traced replay's cache. *)
let traced_replay tally ~capacity ?journal ~expected lines =
  let fresh_journal () =
    Option.map
      (fun src ->
        let dir = Proc.scratch_dir () in
        Host.copy_file ~src ~dst:(Filename.concat dir Persist.default_filename);
        dir)
      journal
  in
  let plain = replayer ~tracer:Span.untraced ~capacity ?journal:(fresh_journal ()) () in
  let t = Span.create () in
  let traced = replayer ~tracer:(Span.traced t) ~capacity ?journal:(fresh_journal ()) () in
  let n = Array.length lines in
  let base = ref 0 in
  while !base < n do
    let k = min replay_chunk (n - !base) in
    List.iter
      (fun r ->
        let t0 = now () in
        let out = Array.init k (fun j -> r.serve lines.(!base + j)) in
        r.chunks <- (now () -. t0) :: r.chunks;
        Array.iteri
          (fun j line ->
            let i = !base + j in
            if line <> expected.(i) then
              Report.fail_op tally i
                (Printf.sprintf "replayed line %d differs from the served one" i))
          out)
      [ plain; traced ];
    base := !base + k
  done;
  List.iter (fun r -> Option.iter Persist.close r.persist) [ plain; traced ];
  let wall = List.fold_left ( +. ) 0.0 traced.chunks in
  let sums = Span.summaries t in
  let total name = match List.assoc_opt name sums with Some s -> s.Span.total_s | None -> 0.0 in
  let quantile name q =
    match List.assoc_opt name sums with
    | Some s -> Stats.quantile_sorted s.Span.durations q
    | None -> 0.0
  in
  let staged = List.fold_left (fun acc st -> acc +. total st) 0.0 Report.serve_stages in
  let unattributed = 1.0 -. (staged /. wall) in
  if unattributed > 0.10 then
    Report.fail_run tally
      (Printf.sprintf "serve stage spans cover only %.1f%% of the replay"
         (100. *. (1. -. unattributed)));
  (* stage spans have no children, so their total is their self time *)
  let stage st =
    [
      (st ^ ".p50_us", 1e6 *. quantile st 0.5);
      (st ^ ".p99_us", 1e6 *. quantile st 0.99);
      (st ^ ".self_s", total st);
    ]
  in
  let values =
    List.concat_map stage Report.serve_stages
    @ [
        ("serve.replay.unattributed_share", unattributed);
        ("serve.supervise.prewarm_s", traced.prewarm_s);
        ("serve.persist.reload_s", traced.reload_s);
        ("serve.persist.reloaded", float_of_int traced.reloaded);
        ( "bench.trace_overhead",
          Stats.median (List.map2 ( /. ) traced.chunks plain.chunks) -. 1.0 );
      ]
  in
  (t, values, quantile "bench.request" 0.5, traced.cache)

let cache_values ~hits ~misses ~rejects ~evictions =
  let lookups = hits + misses + rejects in
  [
    ("serve.cache.hits", float_of_int hits);
    ("serve.cache.misses", float_of_int misses);
    ("serve.cache.rejects", float_of_int rejects);
    ("serve.cache.evictions", float_of_int evictions);
    ( "serve.cache.hit_rate",
      if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.0 );
  ]

(* [Profile.precompute] of the devices the serving layer prewarms. *)
let precompute_s () =
  let t0 = now () in
  List.iter Qaoa_hardware.Profile.precompute
    [ Topologies.ibmq_20_tokyo (); Topologies.ibmq_16_melbourne () ];
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Subprocess plumbing *)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let read_lines path =
  match Host.read_file path with
  | Some s -> Array.of_list (List.filter (( <> ) "") (String.split_on_char '\n' s))
  | None -> [||]

let stderr_tail path =
  match Host.read_file path with
  | None -> ""
  | Some s ->
    let n = String.length s in
    String.trim (if n > 400 then String.sub s (n - 400) 400 else s)

(* Run the batch CLI to completion, sampling its peak RSS meanwhile,
   and, when [watch] names its output file, each growth of that file
   with the time it was seen. *)
let run_batch tally ~exe ~dir ~timeout_s ?watch args =
  let err = Filename.concat dir "stderr.log" in
  let t0 = now () in
  let child = Proc.spawn ~stderr_path:err exe args in
  let rss = ref 0.0 and growth = ref [] and size = ref 0 in
  let on_poll () =
    (match Host.vm_hwm_mb (Some child.Proc.pid) with
    | Some v -> rss := Float.max !rss v
    | None -> ());
    match watch with
    | None -> ()
    | Some f -> (
      match (Unix.stat f).Unix.st_size with
      | n when n <> !size ->
        size := n;
        growth := (now (), n) :: !growth
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
  in
  let status = Proc.wait ~timeout_s ~every:0.002 ~on_poll child in
  let t1 = now () in
  (match status with
  | Some (Unix.WEXITED 0) -> ()
  | st ->
    Report.fail_run tally
      (Printf.sprintf "qaoa-serve %s: %s %s" (String.concat " " args)
         (Proc.describe_status st) (stderr_tail err)));
  (t1 -. t0, !rss, (t0, t1, List.rev !growth))

(* Responses per second in windows of at least half a second, from the
   growth of the output file.  The CLI writes through a buffered
   channel, so the file grows a whole buffer at a time; the number of
   complete lines each growth delivered is counted in the final file. *)
let window_rates ~out_path (t0, t1, growth) =
  let data = Option.value (Host.read_file out_path) ~default:"" in
  let newlines = ref [] in
  String.iteri (fun i c -> if c = '\n' then newlines := i :: !newlines) data;
  let nl = Array.of_list (List.rev !newlines) in
  (* complete lines within the first [size] bytes *)
  let lines_in size =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if nl.(mid) < size then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length nl)
  in
  let rec windows (ta, la) acc = function
    | [] -> acc
    | (t, size) :: rest ->
      let l = lines_in size in
      if t -. ta >= 0.5 then
        windows (t, l) ((float_of_int (l - la) /. (t -. ta)) :: acc) rest
      else windows (ta, la) acc rest
  in
  windows (t0, 0) [] (growth @ [ (t1, String.length data) ])

let ping_line = "{\"op\":\"ping\"}"
let pong_line = "{\"id\":null,\"ok\":true,\"op\":\"ping\"}"

(* Line-framed client for the daemon socket, kept here rather than
   borrowed from the code under test. *)
module Conn = struct
  type t = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

  let connect ~timeout_s path =
    let deadline = now () +. timeout_s in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Some { fd; buf = Buffer.create 4096; eof = false }
      | exception
          Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EINTR | Unix.EAGAIN), _, _)
        ->
        Unix.close fd;
        if now () > deadline then None
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
    in
    go ()

  let send t line =
    let s = line ^ "\n" in
    let rec go off =
      if off < String.length s then
        match Unix.write_substring t.fd s off (String.length s - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    try go 0 with Unix.Unix_error _ -> t.eof <- true

  (* Read whatever the kernel holds; call when select reports readable. *)
  let fill t =
    let b = Bytes.create 65536 in
    match Unix.read t.fd b 0 65536 with
    | 0 -> t.eof <- true
    | n -> Buffer.add_subbytes t.buf b 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> t.eof <- true

  let take_line t =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some nl ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s (nl + 1) (String.length s - nl - 1);
      Some (String.sub s 0 nl)

  (* The next line, or [None] after [timeout_s] or at EOF. *)
  let recv ~timeout_s t =
    let deadline = now () +. timeout_s in
    let rec go () =
      match take_line t with
      | Some l -> Some l
      | None when t.eof -> None
      | None ->
        let left = deadline -. now () in
        if left <= 0.0 then None
        else begin
          (match Unix.select [ t.fd ] [] [] left with
          | _ :: _, _, _ -> fill t
          | [], _, _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go ()
        end
    in
    go ()

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* A reply missing this long counts as a failed operation. *)
let reply_timeout_s = 10.0

(* The CLI sits beside the suite in the build tree:
   <build>/default/bench/suite/main.exe and <build>/default/bin/. *)
let resolve_exe () =
  let up = Filename.dirname in
  let exe = Filename.concat (up (up (up Sys.executable_name))) "bin/qaoa_serve_cli.exe" in
  if Sys.file_exists exe then exe
  else failwith (exe ^ " is missing: build the repository first (dune build)")

(* ------------------------------------------------------------------ *)
(* serve-batch-cold *)

let batch_per_second = 1350.0

let batch ~seed ~seconds ~traced =
  let exe = resolve_exe () in
  let tally = Report.tally () in
  let dir = Proc.scratch_dir () in
  let path name = Filename.concat dir name in
  let count = int_of_float (batch_per_second *. float_of_int seconds) in
  let reqs = Array.init count (request ~seed ~tag:"b" ~stream:0) in
  let lines = Array.map (fun r -> r.line) reqs in
  write_lines (path "in.jsonl") lines;
  write_lines (path "ping.jsonl") [| ping_line |];
  (* set-up: the CLI's wall time on a one-line ping input, with one
     worker domain.  With two it is bimodal on a virtual machine (about
     3 or 8 ms, as waking the idle second vCPU is fast or slow, in
     proportions that change from run to run), which would drown any
     change in the CLI's own start-up. *)
  let setup_reps = 9 in
  let setups =
    List.init setup_reps (fun _ ->
        let wall, _, _ =
          run_batch tally ~exe ~dir ~timeout_s:30.0
            [ "-i"; path "ping.jsonl"; "-o"; path "pong.jsonl"; "--workers"; "1" ]
        in
        if read_lines (path "pong.jsonl") <> [| pong_line |] then
          Report.fail_run tally "ping batch did not answer with a pong";
        wall)
  in
  let wall, rss, growth =
    run_batch tally ~exe ~dir ~timeout_s:150.0 ~watch:(path "out.jsonl")
      [ "-i"; path "in.jsonl"; "-o"; path "out.jsonl"; "--workers"; "2"; "--timings" ]
  in
  (* the median window rate, which a few seconds of interference from
     other load on the host does not move; the whole-run rate when the
     output arrived in too few pieces to window *)
  let rates = window_rates ~out_path:(path "out.jsonl") growth in
  let throughput =
    if List.length rates >= 5 then Stats.median rates else float_of_int count /. wall
  in
  let out = read_lines (path "out.jsonl") in
  if Array.length out <> count then
    Report.fail_run tally
      (Printf.sprintf "batch answered %d of %d requests" (Array.length out) count);
  tally.Report.attempted <- count;
  let latencies = ref [] and depths = ref [] and gates = ref [] and swaps = ref 0 in
  let parse i req =
    match if i < Array.length out then check_response req out.(i) else Error "no response" with
    | Error why ->
      Report.fail_op tally i (req.id ^ ": " ^ why);
      None
    | Ok json -> (
      match
        ( Option.bind (field "ms" json) Json.to_float,
          int_field "depth" json,
          int_field "gates" json,
          int_field "swaps" json )
      with
      | Some ms, Some d, Some g, Some s ->
        latencies := ms :: !latencies;
        depths := float_of_int d :: !depths;
        gates := float_of_int g :: !gates;
        swaps := !swaps + s;
        Some json
      | _ ->
        Report.fail_op tally i (req.id ^ ": missing ms/depth/gates/swaps");
        None)
  in
  let parsed = Array.mapi parse reqs in
  (* the seeded 1% direct-compile sample *)
  let tokyo = Topologies.ibmq_20_tokyo () in
  let lb = ref [] in
  Array.iteri
    (fun i req ->
      match parsed.(i) with
      | Some json when i mod 100 = seed mod 100 -> (
        match direct_check tokyo req json with
        | Ok r -> lb := r :: !lb
        | Error why -> Report.fail_op tally i (req.id ^ ": " ^ why))
      | _ -> ())
    reqs;
  let e2e =
    [
      ("latency_p50_ms", Stats.quantile !latencies 0.5);
      ("latency_p95_ms", Stats.quantile !latencies 0.95);
      ("throughput_ops_per_s", throughput);
      ("setup_s", Stats.median setups);
      ("peak_rss_mb", rss);
      ("depth_geomean", Stats.geomean !depths);
      ("gate_count_geomean", Stats.geomean !gates);
      ("depth_over_lb_geomean", Stats.geomean !lb);
    ]
  in
  let samples =
    [
      ("requests", count);
      ("latency_samples", List.length !latencies);
      ("lower_bound_sample", List.length !lb);
      ("setup_reps", setup_reps);
      ("throughput_windows", List.length rates);
    ]
  in
  let spans, per_layer =
    if not traced then (None, [])
    else
      let expected =
        if Array.length out = count then Array.map strip_timings out else Array.make count ""
      in
      let t, values, _, cache = traced_replay tally ~capacity:4096 ~expected lines in
      let c = Cache.stats cache in
      ( Some t,
        values
        @ cache_values ~hits:c.Cache.hits ~misses:c.Cache.misses ~rejects:c.Cache.rejects
            ~evictions:c.Cache.evictions
        @ [
            ("backend.router.swaps_total", float_of_int !swaps);
            ("hardware.profile.precompute_s", precompute_s ());
          ] )
  in
  Proc.remove_dir dir;
  { Report.tally; values = e2e @ per_layer; samples; digest = digest_lines lines; spans }

(* ------------------------------------------------------------------ *)
(* serve-daemon-warm *)

let hot_size = 512

(* One connection's request in flight: its position in the sequence,
   the request, the hot-set index for a hit, and when it was sent. *)
type flight = int * req * int option * float

let daemon ~seed ~seconds ~traced =
  let exe = resolve_exe () in
  let tally = Report.tally () in
  let dir = Proc.scratch_dir () in
  let path name = Filename.concat dir name in
  let journal = path "journal" in
  let hot = Array.init hot_size (request ~seed ~tag:"h" ~stream:1) in
  write_lines (path "hot.jsonl") (Array.map (fun r -> r.line) hot);
  (* prime the journal with the hot set; its answers are the reference
     every later hit must repeat byte for byte *)
  ignore
    (run_batch tally ~exe ~dir ~timeout_s:60.0
       [
         "-i"; path "hot.jsonl"; "-o"; path "hot.out"; "--workers"; "2"; "--cache"; "1024";
         "--cache-dir"; journal;
       ]
      : float * float * _);
  let hot_ref =
    match read_lines (path "hot.out") with
    | a when Array.length a = hot_size -> a
    | _ ->
      Report.fail_run tally "priming batch lost responses";
      Array.make hot_size ""
  in
  let hot_json =
    Array.mapi
      (fun k r ->
        match check_response r hot_ref.(k) with
        | Ok j -> Some j
        | Error why ->
          Report.fail_run tally (Printf.sprintf "priming %s: %s" r.id why);
          None)
      hot
  in
  let primed = path "journal.primed" in
  (try Host.copy_file ~src:(Filename.concat journal Persist.default_filename) ~dst:primed
   with Sys_error msg -> Report.fail_run tally ("priming left no journal: " ^ msg));
  let sock = path "d.sock" in
  let daemon_args =
    [
      "--daemon"; sock; "--workers"; "2"; "--cache"; "1024"; "--cache-dir"; journal;
      "--resume-cache";
    ]
  in
  let stop child =
    match Proc.terminate child with
    | Some (Unix.WEXITED 143) -> ()
    | st ->
      Report.fail_run tally ("daemon did not drain with exit 143: " ^ Proc.describe_status st)
  in
  (* set-up: spawn to first pong, journal reload included; the last
     repetition's daemon is the one measured *)
  let setup_reps = 9 in
  let start_daemon () =
    let t0 = now () in
    let child = Proc.spawn ~stderr_path:(path "daemon.log") exe daemon_args in
    match Conn.connect ~timeout_s:reply_timeout_s sock with
    | None ->
      Report.fail_run tally ("daemon never accepted: " ^ stderr_tail (path "daemon.log"));
      (child, None, now () -. t0)
    | Some c ->
      Conn.send c ping_line;
      let reply = Conn.recv ~timeout_s:reply_timeout_s c in
      let dt = now () -. t0 in
      if reply <> Some pong_line then Report.fail_run tally "daemon did not pong";
      (child, Some c, dt)
  in
  let rec spin k acc =
    let child, conn, dt = start_daemon () in
    if k = setup_reps then (child, conn, dt :: acc)
    else begin
      Option.iter Conn.close conn;
      stop child;
      spin (k + 1) (dt :: acc)
    end
  in
  let daemon, first_conn, setups = spin 1 [] in
  (* position [s] of the sequence: every 5th is fresh, the rest walk
     the shuffled hot set *)
  let order = Rng.permutation (Rng.create (Compile_wl.mix seed 31)) hot_size in
  let fresh = Hashtbl.create 256 in
  let request_at s =
    if s mod 5 = 4 then begin
      let j = s / 5 in
      let r = request ~seed ~tag:"f" ~stream:2 j in
      Hashtbl.replace fresh s (j, r);
      (r, None)
    end
    else
      let k = order.((s - (s / 5)) mod hot_size) in
      (hot.(k), Some k)
  in
  let sent = ref [] and answers = Hashtbl.create 1024 and latencies = ref [] in
  let next = ref 0 in
  let conns =
    Array.init 2 (fun i ->
        if i = 0 then first_conn else Conn.connect ~timeout_s:reply_timeout_s sock)
  in
  let usable i = match conns.(i) with Some c -> not c.Conn.eof | None -> false in
  let answer ((s, r, k, t0) : flight) line =
    latencies := (1e3 *. (now () -. t0)) :: !latencies;
    Hashtbl.replace answers s line;
    match k with
    | Some k ->
      if line <> hot_ref.(k) then
        Report.fail_op tally s (r.id ^ ": hit differs from first response")
    | None -> (
      match check_response r line with
      | Ok _ -> ()
      | Error why -> Report.fail_op tally s (r.id ^ ": " ^ why))
  in
  (* One round: the next request of the sequence on each connection,
     then both replies.  Rounds keep the two connections in step: two
     free-running loops drift between sharing one poll wakeup and
     waking each other, and the throughput with them.  A reply missing
     for [reply_timeout_s] fails its request, and its connection is
     replaced so a late reply cannot be taken for the next one. *)
  let round () =
    let send i c =
      if not (usable i) then None
      else
        let s = !next in
        incr next;
        let r, k = request_at s in
        sent := (s, r) :: !sent;
        let t0 = now () in
        Conn.send c r.line;
        Some ((s, r, k, t0) : flight)
    in
    let pending =
      Array.mapi (fun i c -> Option.bind c (send i)) conns
    in
    let deadline = now () +. reply_timeout_s in
    let rec await () =
      let waiting = List.filter (fun i -> pending.(i) <> None && usable i) [ 0; 1 ] in
      let left = deadline -. now () in
      if waiting <> [] && left > 0.0 then begin
        let fd i = (Option.get conns.(i)).Conn.fd in
        (match Unix.select (List.map fd waiting) [] [] left with
        | ready, _, _ ->
          List.iter
            (fun i ->
              let c = Option.get conns.(i) in
              if List.mem c.Conn.fd ready then begin
                Conn.fill c;
                match (Conn.take_line c, pending.(i)) with
                | Some line, Some p ->
                  pending.(i) <- None;
                  answer p line
                | _ -> ()
              end)
            waiting
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        await ()
      end
    in
    await ();
    Array.iteri
      (fun i p ->
        match p with
        | Some ((s, r, _, _) : flight) ->
          Report.fail_op tally s (r.id ^ ": no reply");
          Option.iter Conn.close conns.(i);
          conns.(i) <- Conn.connect ~timeout_s:reply_timeout_s sock
        | None -> ())
      pending
  in
  let t_start = now () in
  let t_end = t_start +. float_of_int seconds in
  while tally.Report.run_ok && now () < t_end && (usable 0 || usable 1) do
    round ()
  done;
  let elapsed = now () -. t_start in
  let sent = Array.of_list (List.rev !sent) in
  tally.Report.attempted <- Array.length sent;
  (* traced: ping RTT and the cache taxonomy of the idle daemon *)
  let daemon_values =
    match (traced, conns.(0)) with
    | false, _ | _, None -> []
    | true, Some c ->
      let ping () =
        let t0 = now () in
        Conn.send c ping_line;
        match Conn.recv ~timeout_s:reply_timeout_s c with
        | Some l when l = pong_line -> Some (1e3 *. (now () -. t0))
        | _ ->
          Report.fail_run tally "ping after the run failed";
          None
      in
      let rtts = List.filter_map Fun.id (List.init 100 (fun _ -> ping ())) in
      Conn.send c "{\"op\":\"stats\"}";
      let cache =
        Option.bind
          (Option.bind (Conn.recv ~timeout_s:reply_timeout_s c) Json.of_string_opt)
          (field "cache")
      in
      if cache = None then Report.fail_run tally "daemon stats unavailable";
      let count name = Option.value (Option.bind cache (int_field name)) ~default:0 in
      [
        ("serve.daemon.ping_rtt_p50_ms", Stats.quantile rtts 0.5);
        ("serve.daemon.ping_rtt_p99_ms", Stats.quantile rtts 0.99);
      ]
      @ cache_values ~hits:(count "hits") ~misses:(count "misses") ~rejects:(count "rejects")
          ~evictions:(count "evictions")
  in
  let rss = Option.value (Host.vm_hwm_mb (Some daemon.Proc.pid)) ~default:0.0 in
  Array.iter (Option.iter Conn.close) conns;
  stop daemon;
  (* direct-compile checks: every 4th hot request and 1% of the fresh *)
  let tokyo = Topologies.ibmq_20_tokyo () in
  let lb = ref [] in
  Array.iteri
    (fun k r ->
      match hot_json.(k) with
      | Some json when k mod 4 = 0 -> (
        match direct_check tokyo r json with
        | Ok x -> lb := x :: !lb
        | Error why -> Report.fail_run tally (r.id ^ ": " ^ why))
      | _ -> ())
    hot;
  Hashtbl.iter
    (fun s (j, r) ->
      match Option.bind (Hashtbl.find_opt answers s) Json.of_string_opt with
      | Some json when j mod 100 = 0 -> (
        match direct_check tokyo r json with
        | Ok _ -> ()
        | Error why -> Report.fail_op tally s (r.id ^ ": " ^ why))
      | _ -> ())
    fresh;
  let hot_geomean name =
    Stats.geomean
      (List.filter_map
         (fun j -> Option.map float_of_int (Option.bind j (int_field name)))
         (Array.to_list hot_json))
  in
  let lat_p50 = Stats.quantile !latencies 0.5 in
  let e2e =
    [
      ("latency_p50_ms", lat_p50);
      ("latency_p95_ms", Stats.quantile !latencies 0.95);
      ("throughput_ops_per_s", float_of_int (List.length !latencies) /. elapsed);
      ("setup_s", Stats.median setups);
      ("peak_rss_mb", rss);
      ("depth_geomean", hot_geomean "depth");
      ("gate_count_geomean", hot_geomean "gates");
      ("depth_over_lb_geomean", Stats.geomean !lb);
    ]
  in
  let samples =
    [
      ("requests", Array.length sent);
      ("latency_samples", List.length !latencies);
      ("lower_bound_sample", List.length !lb);
      ("setup_reps", setup_reps);
      ("hot_set", hot_size);
    ]
  in
  let lines = Array.map (fun (_, r) -> r.line) sent in
  let spans, per_layer =
    if not traced then (None, [])
    else
      let expected =
        Array.map (fun (s, _) -> Option.value (Hashtbl.find_opt answers s) ~default:"") sent
      in
      let t, values, request_p50, _ =
        traced_replay tally ~capacity:1024 ~journal:primed ~expected lines
      in
      let swaps_of line = Option.bind (Json.of_string_opt line) (int_field "swaps") in
      let swaps =
        Hashtbl.fold (fun _ line acc -> acc + Option.value (swaps_of line) ~default:0) answers 0
      in
      ( Some t,
        values @ daemon_values
        @ [
            ("serve.daemon.wait_p50_ms", lat_p50 -. (1e3 *. request_p50));
            ("backend.router.swaps_total", float_of_int swaps);
            ("hardware.profile.precompute_s", precompute_s ());
          ] )
  in
  Proc.remove_dir dir;
  { Report.tally; values = e2e @ per_layer; samples; digest = digest_lines lines; spans }
