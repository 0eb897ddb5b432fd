(* qaoa-serve: JSONL batch compilation across a pool of domains.

   Examples:
     qaoa-serve --gen-corpus 200 --seed 3 > corpus.jsonl
     qaoa-serve --input corpus.jsonl --workers 4 --output out.jsonl
     cat corpus.jsonl | qaoa-serve --workers 1 --stats
     qaoa-serve --cache-dir state --input corpus.jsonl >/dev/null
     qaoa-serve --cache-dir state --resume-cache --daemon serve.sock

   One request per input line, one response per output line.  Malformed
   lines produce structured {"ok":false,...} responses and never change
   the exit status: 0 = every line answered, 3 = the service itself
   failed (unreadable file, bad flag interplay, ...), 130/143 = drained
   cleanly after SIGINT/SIGTERM (in-flight requests were answered and
   the cache journal flushed before exiting). *)

module Serve = Qaoa_serve.Serve
module Pool = Qaoa_serve.Pool
module Cache = Qaoa_serve.Cache
module Persist = Qaoa_serve.Persist
module Supervise = Qaoa_serve.Supervise
module Daemon = Qaoa_serve.Daemon
module Signals = Qaoa_journal.Signals
module Chaos = Qaoa_journal.Chaos
open Cmdliner

let with_in path f =
  match path with
  | None -> f stdin
  | Some p ->
    let ic = open_in p in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
    let oc = open_out p in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let print_stats oc (stats : Serve.stats) persist =
  Printf.fprintf oc "qaoa-serve: %d requests, %d errors" stats.Serve.requests
    stats.Serve.errors;
  (match stats.Serve.cache_stats with
  | Some c ->
    Printf.fprintf oc
      "; cache %d hits / %d misses / %d rejects / %d evictions (size %d)"
      c.Cache.hits c.Cache.misses c.Cache.rejects c.Cache.evictions
      c.Cache.size;
    if c.Cache.reloaded > 0 then
      Printf.fprintf oc ", %d reloaded" c.Cache.reloaded
  | None -> ());
  (match persist with
  | Some p ->
    let s = Persist.stats p in
    Printf.fprintf oc "; journal %d appended / %d loaded" s.Persist.s_appended
      s.Persist.s_loaded;
    if s.Persist.s_dropped > 0 then
      Printf.fprintf oc ", %d corrupt dropped" s.Persist.s_dropped;
    if s.Persist.s_torn_truncated > 0 then
      Printf.fprintf oc ", torn tail truncated"
  | None -> ());
  output_char oc '\n'

let run () gen_corpus gen_device input output workers queue timings cache
    cache_dir resume_cache daemon tries deadline stats seed =
  try
    match gen_corpus with
    | Some count ->
      if count < 1 then failwith "--gen-corpus expects a positive count";
      with_out output (fun oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (Serve.gen_corpus ~device:gen_device ~seed ~count ());
          flush oc);
      0
    | None ->
      let workers = if workers = 0 then Pool.default_workers () else workers in
      if workers < 1 then
        failwith "--workers expects a positive count (or 0 for auto)";
      if queue < 1 then failwith "--queue expects a positive capacity";
      if cache < 0 then failwith "--cache expects a capacity >= 0";
      if tries < 1 then failwith "--tries expects a positive count";
      if cache_dir = None && resume_cache then
        failwith "--resume-cache needs --cache-dir";
      if cache_dir <> None && cache = 0 then
        failwith "--cache-dir needs a nonzero --cache capacity";
      Chaos.install_from_env ();
      let cache_t =
        if cache = 0 then None else Some (Cache.create ~capacity:cache ())
      in
      let persist =
        match (cache_dir, cache_t) with
        | Some dir, Some c -> Some (Persist.open_ ~resume:resume_cache ~dir c)
        | _ -> None
      in
      let drain = Signals.install_drain () in
      let config =
        {
          Serve.workers;
          queue_capacity = queue;
          timings;
          cache = cache_t;
          persist;
          supervise = { Supervise.tries; deadline_s = deadline };
          drain = Some drain;
          inflight = Atomic.make 0;
        }
      in
      let st =
        match daemon with
        | Some socket_path ->
          Daemon.run
            ~on_ready:(fun () ->
              Printf.eprintf "qaoa-serve: listening on %s\n%!" socket_path)
            config ~socket_path ~drain
        | None -> with_in input (fun ic -> with_out output (Serve.run config ic))
      in
      (* drained or not, leave the journal compacted and closed *)
      (match (persist, cache_t) with
      | Some p, Some c -> Persist.finish p c
      | _ -> ());
      if stats then print_stats stderr st persist;
      (* conventional 128+signal exit after a graceful drain *)
      Atomic.get drain
  with Sys_error msg | Invalid_argument msg | Failure msg ->
    Printf.eprintf "qaoa-serve: %s\n" msg;
    3

let cmd =
  let gen_corpus =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-corpus" ] ~docv:"N"
          ~doc:
            "Instead of serving, emit a deterministic N-request JSONL corpus \
             (seeded by --seed) and exit.")
  in
  let gen_device =
    Arg.(
      value & opt string "tokyo"
      & info [ "gen-device" ] ~docv:"NAME"
          ~doc:"Device the generated corpus targets (with --gen-corpus).")
  in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "input"; "i" ] ~docv:"FILE"
          ~doc:"Read requests from FILE instead of stdin.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write responses to FILE instead of stdout.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains; 0 (the default) picks the machine's \
             recommended domain count.")
  in
  let queue =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded number of requests in flight at once.")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Append per-response cached/ms diagnostics (non-deterministic; \
             leave off when diffing runs).")
  in
  let cache =
    Arg.(
      value & opt int 4096
      & info [ "cache" ] ~docv:"N"
          ~doc:"Compiled-artifact cache capacity in entries; 0 disables it.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the artifact cache: journal every insertion to \
             DIR/cache.jsonl (checksummed, flushed, crash-tolerant).")
  in
  let resume_cache =
    Arg.(
      value & flag
      & info [ "resume-cache" ]
          ~doc:
            "Reload DIR/cache.jsonl into the cache before serving (torn \
             trailing records are truncated, corrupt records dropped); \
             without this flag a previous journal is discarded.")
  in
  let daemon =
    Arg.(
      value
      & opt (some string) None
      & info [ "daemon" ] ~docv:"SOCK"
          ~doc:
            "Serve JSONL over a Unix-domain socket at SOCK instead of \
             stdin/stdout, until SIGINT/SIGTERM drains the daemon.")
  in
  let tries =
    Arg.(
      value & opt int 2
      & info [ "tries" ] ~docv:"N"
          ~doc:
            "Total attempts per request: retryable compile failures are \
             retried with deterministic reseeding.  1 disables retry.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request compile or routing budget, spanning all attempts.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print request/error/cache/journal totals to stderr when done.")
  in
  let seed =
    Arg.(
      value & opt int 3
      & info [ "seed" ] ~docv:"SEED" ~doc:"Corpus generator seed.")
  in
  let term =
    Term.(
      const run $ Qaoa_cli.setup $ gen_corpus $ gen_device $ input $ output
      $ workers $ queue $ timings $ cache $ cache_dir $ resume_cache
      $ daemon $ tries $ deadline $ stats $ seed)
  in
  Cmd.v
    (Cmd.info "qaoa-serve" ~version:"1.0.0"
       ~doc:
         "Supervised QAOA compilation service: JSONL requests over a domain \
          pool with a persistent artifact cache, batch or daemon")
    term

let () = exit (Cmd.eval' ~term_err:3 cmd)
