module Json = Qaoa_obs.Json
module Metrics_registry = Qaoa_obs.Metrics_registry

(* ------------------------------------------------------------------ *)
(* Pure supervision arithmetic                                         *)

module Backoff = struct
  let delay_s ~base_s ~cap_s ~attempt =
    let attempt = max 1 attempt in
    Float.min cap_s (base_s *. (2. ** float_of_int (attempt - 1)))
end

module Flap = struct
  type t = { window_s : float; threshold : int; mutable hits : float list }

  let create ~window_s ~threshold = { window_s; threshold; hits = [] }

  let prune t ~now =
    t.hits <- List.filter (fun ts -> now -. ts <= t.window_s) t.hits

  let note t ~now =
    prune t ~now;
    t.hits <- now :: t.hits

  let count t ~now =
    prune t ~now;
    List.length t.hits

  let flapping t ~now = count t ~now >= t.threshold
end

module Streak = struct
  type t = { need : int; mutable run : int }

  let create ~need = { need; run = 0 }
  let hit t = t.run <- t.run + 1
  let miss t = t.run <- 0
  let reached t = t.run >= t.need
end

let owner ~shards hash = ((hash mod shards) + shards) mod shards

let route ~shards ~alive hash =
  let o = owner ~shards hash in
  let rec go k =
    if k = shards then None
    else
      let s = (o + k) mod shards in
      if alive s then Some s else go (k + 1)
  in
  go 0

let mark_rerouted line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '}' then
    String.sub line 0 (n - 1) ^ ",\"rerouted\":true}"
  else line

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type child_fn =
  slot:int ->
  generation:int ->
  socket_path:string ->
  shutdown_fd:Unix.file_descr ->
  int

type config = {
  shards : int;
  socket_dir : string;
  child : child_fn;
  sort : bool;
  timings : bool;
  probe_interval_s : float;
  probe_timeout_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  flap_window_s : float;
  flap_threshold : int;
  readopt_streak : int;
  give_up_attempts : int;
  inflight_per_shard : int;
  drain : int Atomic.t option;
  on_spawn : (slot:int -> generation:int -> pid:int -> unit) option;
}

let default_config ~shards ~socket_dir ~child () =
  {
    shards;
    socket_dir;
    child;
    sort = false;
    timings = false;
    probe_interval_s = 0.25;
    probe_timeout_s = 10.0;
    backoff_base_s = 0.05;
    backoff_cap_s = 1.0;
    flap_window_s = 10.0;
    flap_threshold = 3;
    readopt_streak = 5;
    give_up_attempts = 25;
    inflight_per_shard = 32;
    drain = None;
    on_spawn = None;
  }

type stats = {
  requests : int;
  errors : int;
  spawned : int;
  restarts : int;
  rerouted : int;
  probe_failures : int;
  flapped : int;
  shard_stats : (int * string) list;
}

(* ------------------------------------------------------------------ *)
(* Fleet state                                                         *)

type entry = {
  seq : int;  (** global submission order - the reorder key *)
  e_id : string option;
  e_line : int;
  payload : string;
  hash : int;
  mutable replays : int;
  mutable rerouted : bool;
}

type pending = Probe of float | StatsQ | Req of entry

type link = {
  client : Daemon.Client.t;
  pending : pending Queue.t;  (** FIFO: responses match 1:1 in order *)
  mutable last_rx : float;
  mutable last_probe : float;  (** send time of the most recent probe *)
  mutable probe_sent : float option;  (** outstanding probe, if any *)
}

type slot = {
  idx : int;
  socket_path : string;
  mutable pid : int;  (** -1 = no child *)
  mutable death_w : Unix.file_descr option;  (** parent-death pipe *)
  mutable generation : int;  (** forks so far *)
  mutable link : link option;
  mutable degraded : bool;
  mutable gave_up : bool;
  mutable next_spawn : float;
  mutable attempt : int;  (** consecutive deaths; reset by any rx *)
  flap : Flap.t;
  streak : Streak.t;
  mutable stats_line : string option;
}

type t = {
  cfg : config;
  slots : slot array;
  child_cleanup : unit -> unit;  (** extra fds to close in the child *)
  parked : entry Queue.t;  (** routed nowhere yet (dead/busy owner) *)
  mutable completed : (entry * string) list;  (** drained by the driver *)
  mutable spawned : int;
  mutable restarts : int;
  mutable rerouted_n : int;
  mutable probe_failures : int;
  mutable flapped : int;
  mutable draining : bool;  (** no admission, no respawn *)
}

(* The running fleet, for the signal handler's fan-out.  Reading a
   mutable array from a handler is safe; there is at most one fleet
   per process. *)
let current : t option ref = ref None

let live_pids () =
  match !current with
  | None -> []
  | Some t ->
    Array.to_list t.slots
    |> List.filter_map (fun s -> if s.pid > 0 then Some s.pid else None)

let req_count l =
  Queue.fold (fun n -> function Req _ -> n + 1 | _ -> n) 0 l.pending

let inflight t =
  Array.to_list t.slots
  |> List.fold_left
       (fun n s -> match s.link with Some l -> n + req_count l | None -> n)
       0

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Spawning and death                                                  *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork one child for [slot].  The child closes every parent-side fd
   of the rest of the fleet (so a sibling's death pipe still signals
   EOF and a sibling's socket still resets) plus whatever the driver
   registered, then runs the child function and _exits - bypassing
   inherited at_exit finalizers, which belong to the parent. *)
let spawn t slot ~now =
  let g = slot.generation in
  slot.generation <- g + 1;
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Unix.close w;
        Array.iter
          (fun s ->
            (match s.death_w with Some fd -> close_quiet fd | None -> ());
            match s.link with
            | Some l -> Daemon.Client.close l.client
            | None -> ())
          t.slots;
        t.child_cleanup ();
        t.cfg.child ~slot:slot.idx ~generation:g
          ~socket_path:slot.socket_path ~shutdown_fd:r
      with _ -> 125
    in
    Unix._exit code
  | pid ->
    Unix.close r;
    slot.pid <- pid;
    slot.death_w <- Some w;
    t.spawned <- t.spawned + 1;
    Metrics_registry.incr "serve.shard.spawned";
    if g > 0 then begin
      t.restarts <- t.restarts + 1;
      Metrics_registry.incr "serve.shard.restarts"
    end;
    (match t.cfg.on_spawn with
    | Some f -> f ~slot:slot.idx ~generation:g ~pid
    | None -> ());
    (* connect in short slices, watching for the child dying before it
       binds - a crash-on-start child must cost ~0.1s and a backoff,
       not the full connect deadline *)
    let deadline = now +. 10.0 in
    let rec link_up () =
      match Daemon.Client.connect ~timeout_s:0.1 slot.socket_path with
      | client ->
        slot.link <-
          Some
            {
              client;
              pending = Queue.create ();
              last_rx = now;
              last_probe = now;
              probe_sent = None;
            }
      | exception Daemon.Client.Timeout _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> if Unix.gettimeofday () < deadline then link_up ()
        | _, _ -> slot.pid <- -1 (* died before binding; already reaped *)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> slot.pid <- -1
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> link_up ())
    in
    link_up ()

(* A slot's child is gone (reaped, EOF, or probe deadline): salvage
   nothing further - the driver already drained buffered lines -
   replay in-flight requests to the parked queue, reap, record the
   restart for the flap detector and schedule the respawn. *)
let note_death t slot ~now =
  (match slot.link with
  | Some l ->
    Queue.iter
      (function
        | Req e ->
          e.replays <- e.replays + 1;
          Queue.add e t.parked
        | Probe _ | StatsQ -> ())
      l.pending;
    Daemon.Client.close l.client
  | None -> ());
  slot.link <- None;
  (match slot.death_w with Some fd -> close_quiet fd | None -> ());
  slot.death_w <- None;
  if slot.pid > 0 then begin
    (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] slot.pid)
    with Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  end;
  slot.pid <- -1;
  Flap.note slot.flap ~now;
  Streak.miss slot.streak;
  if (not slot.degraded) && Flap.flapping slot.flap ~now then begin
    slot.degraded <- true;
    t.flapped <- t.flapped + 1;
    Metrics_registry.incr "serve.shard.flapping"
  end;
  slot.attempt <- slot.attempt + 1;
  if slot.attempt > t.cfg.give_up_attempts then slot.gave_up <- true
  else
    slot.next_spawn <-
      now
      +. Backoff.delay_s ~base_s:t.cfg.backoff_base_s
           ~cap_s:t.cfg.backoff_cap_s ~attempt:slot.attempt

(* Drain whatever the child already wrote - the kernel buffer survives
   its death, which is half of the exactly-once story: delivered bytes
   are kept, only the truly unanswered tail is replayed. *)
let pump t slot =
  match slot.link with
  | None -> ()
  | Some l ->
    let rec go () =
      match Daemon.Client.poll_line l.client with
      | `Nothing -> ()
      | `Eof -> note_death t slot ~now:(Unix.gettimeofday ())
      | `Line line ->
        l.last_rx <- Unix.gettimeofday ();
        slot.attempt <- 0;
        (match Queue.take_opt l.pending with
        | None -> () (* spurious line from a confused child; drop *)
        | Some (Probe _) ->
          l.probe_sent <- None;
          if slot.degraded then begin
            Streak.hit slot.streak;
            if Streak.reached slot.streak then begin
              (* stable again: the owner re-adopts its keyspace *)
              slot.degraded <- false;
              Streak.miss slot.streak
            end
          end
        | Some StatsQ -> slot.stats_line <- Some line
        | Some (Req e) ->
          let line =
            if e.rerouted && t.cfg.timings then mark_rerouted line else line
          in
          t.completed <- (e, line) :: t.completed);
        go ()
    in
    go ()

let send_probe t slot ~now =
  match slot.link with
  | None -> ()
  | Some l ->
    if l.probe_sent = None && now -. l.last_probe >= t.cfg.probe_interval_s
    then (
      match Daemon.Client.send_line l.client {|{"op":"ping"}|} with
      | () ->
        l.last_probe <- now;
        l.probe_sent <- Some now;
        Queue.add (Probe now) l.pending
      | exception Unix.Unix_error _ -> note_death t slot ~now)

let check_probe_deadline t slot ~now =
  match slot.link with
  | None -> ()
  | Some l -> (
    match l.probe_sent with
    | Some sent
      when now -. sent > t.cfg.probe_timeout_s
           && now -. l.last_rx > t.cfg.probe_timeout_s ->
      (* unanswered probe and radio silence: the child is wedged, not
         merely busy (a busy child still streams responses) *)
      t.probe_failures <- t.probe_failures + 1;
      Metrics_registry.incr "serve.shard.probe_failures";
      note_death t slot ~now
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* Dispatch one entry.  Healthy owners win; a degraded-but-up slot is
   a last resort (better than parking when every healthy slot is
   down).  Backpressure never reroutes: a full owner parks the entry
   instead, so [rerouted] means "owner was down or degraded", not "a
   queue was long". *)
let try_dispatch t e =
  let shards = t.cfg.shards in
  let healthy i = t.slots.(i).link <> None && not t.slots.(i).degraded in
  let up i = t.slots.(i).link <> None in
  let target =
    match route ~shards ~alive:healthy e.hash with
    | Some i -> Some i
    | None -> route ~shards ~alive:up e.hash
  in
  match target with
  | None -> false
  | Some i -> (
    let s = t.slots.(i) in
    match s.link with
    | None -> false
    | Some l ->
      if req_count l >= t.cfg.inflight_per_shard then false
      else (
        match Daemon.Client.send_line l.client e.payload with
        | () ->
          if (i <> owner ~shards e.hash || e.replays > 0) && not e.rerouted
          then begin
            e.rerouted <- true;
            t.rerouted_n <- t.rerouted_n + 1;
            Metrics_registry.incr "serve.shard.rerouted"
          end;
          Queue.add (Req e) l.pending;
          true
        | exception Unix.Unix_error _ ->
          note_death t s ~now:(Unix.gettimeofday ());
          false))

let dispatch_parked t =
  let n = Queue.length t.parked in
  for _ = 1 to n do
    let e = Queue.pop t.parked in
    if not (try_dispatch t e) then Queue.add e t.parked
  done

(* ------------------------------------------------------------------ *)
(* The step: one round of supervision + io                             *)

let reap t slot =
  if slot.pid > 0 then
    match Unix.waitpid [ Unix.WNOHANG ] slot.pid with
    | 0, _ -> ()
    | _, _ ->
      (* already reaped: salvage buffered responses, then bury it *)
      slot.pid <- -1;
      pump t slot;
      if slot.link <> None then
        note_death t slot ~now:(Unix.gettimeofday ())
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      slot.pid <- -1;
      pump t slot;
      if slot.link <> None then note_death t slot ~now:(Unix.gettimeofday ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let step t ~now =
  Array.iter (fun s -> reap t s) t.slots;
  Array.iter (fun s -> pump t s) t.slots;
  Array.iter
    (fun s ->
      check_probe_deadline t s ~now;
      send_probe t s ~now)
    t.slots;
  if not t.draining then
    Array.iter
      (fun s ->
        if
          s.link = None && s.pid <= 0 && (not s.gave_up)
          && now >= s.next_spawn
        then begin
          spawn t s ~now;
          (* stillborn generation (crashed before binding): record the
             death so backoff/flap arithmetic sees it - otherwise a
             crash-on-start child would respawn in a tight loop *)
          if s.link = None then note_death t s ~now
        end)
      t.slots;
  dispatch_parked t

(* Block until some shard has bytes for us (or [timeout_s] passes) -
   the supervision loop's only wait. *)
let wait_io t ~timeout_s =
  let fds =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           Option.map (fun l -> Daemon.Client.fd l.client) s.link)
  in
  match Unix.select fds [] [] timeout_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Wind-down                                                           *)

(* Ask every live shard for its stats line ({"op":"stats"}), bounded
   wait: a shard that dies mid-question simply reports no stats. *)
let collect_stats t =
  Array.iter
    (fun s ->
      match s.link with
      | None -> ()
      | Some l -> (
        match Daemon.Client.send_line l.client {|{"op":"stats"}|} with
        | () -> Queue.add StatsQ l.pending
        | exception Unix.Unix_error _ ->
          note_death t s ~now:(Unix.gettimeofday ())))
    t.slots;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let outstanding () =
    Array.exists
      (fun s ->
        s.link <> None && s.stats_line = None
        && Queue.fold
             (fun b -> function StatsQ -> true | _ -> b)
             false
             (Option.get s.link).pending)
      t.slots
  in
  while outstanding () && Unix.gettimeofday () < deadline do
    wait_io t ~timeout_s:0.02;
    Array.iter (fun s -> pump t s) t.slots
  done

(* Graceful fleet drain: SIGTERM fan-out (each child records 143,
   finishes in-flight work, flushes its journal, exits), bounded wait,
   SIGKILL stragglers, every child reaped - no zombies survive the
   parent's return. *)
let shutdown t =
  t.draining <- true;
  Array.iter
    (fun s ->
      if s.pid > 0 then
        try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.slots;
  (* closing our end of each protocol socket lets the child's select
     notice the EOF promptly *)
  Array.iter
    (fun s ->
      match s.link with
      | Some l ->
        Daemon.Client.close l.client;
        s.link <- None
      | None -> ())
    t.slots;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reap_all escalated =
    let remaining =
      Array.to_list t.slots |> List.filter (fun s -> s.pid > 0)
    in
    if remaining <> [] then begin
      List.iter
        (fun s ->
          match Unix.waitpid [ Unix.WNOHANG ] s.pid with
          | 0, _ -> ()
          | _, _ -> s.pid <- -1
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.pid <- -1
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        remaining;
      if Array.exists (fun s -> s.pid > 0) t.slots then
        if (not escalated) && Unix.gettimeofday () > deadline then begin
          Array.iter
            (fun s ->
              if s.pid > 0 then
                try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ())
            t.slots;
          reap_all true
        end
        else begin
          (try ignore (Unix.select [] [] [] 0.01)
           with Unix.Unix_error _ -> ());
          reap_all escalated
        end
    end
  in
  reap_all false;
  Array.iter
    (fun s ->
      (match s.death_w with Some fd -> close_quiet fd | None -> ());
      s.death_w <- None)
    t.slots

let fleet_stats t ~requests ~errors =
  {
    requests;
    errors;
    spawned = t.spawned;
    restarts = t.restarts;
    rerouted = t.rerouted_n;
    probe_failures = t.probe_failures;
    flapped = t.flapped;
    shard_stats =
      Array.to_list t.slots
      |> List.filter_map (fun s ->
             Option.map (fun l -> (s.idx, l)) s.stats_line);
  }

let create ?(child_cleanup = fun () -> ()) cfg =
  if cfg.shards < 1 then invalid_arg "Shard: shards must be >= 1";
  (* a send to a freshly-dead child must cost an EPIPE, not the fleet *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  mkdir_p cfg.socket_dir;
  let now = Unix.gettimeofday () in
  let t =
    {
      cfg;
      slots =
        Array.init cfg.shards (fun idx ->
            {
              idx;
              socket_path =
                Filename.concat cfg.socket_dir
                  (Printf.sprintf "shard-%d.sock" idx);
              pid = -1;
              death_w = None;
              generation = 0;
              link = None;
              degraded = false;
              gave_up = false;
              next_spawn = 0.0;
              attempt = 0;
              flap =
                Flap.create ~window_s:cfg.flap_window_s
                  ~threshold:cfg.flap_threshold;
              streak = Streak.create ~need:cfg.readopt_streak;
              stats_line = None;
            });
      child_cleanup;
      parked = Queue.create ();
      completed = [];
      spawned = 0;
      restarts = 0;
      rerouted_n = 0;
      probe_failures = 0;
      flapped = 0;
      draining = false;
    }
  in
  current := Some t;
  Array.iter (fun s -> spawn t s ~now) t.slots;
  (* a slot that forked but never accepted is dead on arrival *)
  Array.iter (fun s -> if s.link = None then note_death t s ~now) t.slots;
  t

let teardown t =
  shutdown t;
  current := None

(* ------------------------------------------------------------------ *)
(* Parent-answered lines                                               *)

(* The parent renders exactly like {!Serve.render} so a line it
   answers is byte-identical to what any worker-count, shard-count or
   plain-batch run produces: unparseable lines carry the {e global}
   line number (a child would have used its own connection-local
   numbering - the reason the parent answers these itself), and ping
   is the same three fields. *)
let render_parent t ~id body =
  let id_json = match id with Some s -> Json.String s | None -> Json.Null in
  let diagnostics =
    if t.cfg.timings then
      [ ("cached", Json.Bool false); ("ms", Json.Float 0.0) ]
    else []
  in
  Json.to_string (Json.Assoc (("id", id_json) :: body @ diagnostics))

let bad_request_body ~line_no msg =
  Supervise.error_body
    ~extra:[ ("line", Json.Int line_no) ]
    ~kind:"bad_request" msg

let unavailable_body ~line_no =
  Supervise.error_body
    ~extra:[ ("line", Json.Int line_no) ]
    ~kind:"shard_unavailable"
    "every shard exhausted its restart budget"

let response_is_error line =
  match Json.of_string_opt line with
  | Some (Json.Assoc fields) ->
    List.assoc_opt "ok" fields = Some (Json.Bool false)
  | _ -> false

(* Classify one input line the way the single-process service would:
   control verbs and unparseable lines are answered by the parent
   (ping with the canonical pong; stats with the fleet's aggregate
   in-flight gauge and no cache - the per-shard caches are reported by
   the wind-down stats collection instead), everything else parses
   into a routable entry. *)
type classified =
  | Answer of { id : string option; line_no : int; body : (string * Json.t) list }
  | Route of { id : string; line_no : int; hash : int }

let classify t (line_no, line) =
  match Request.control_of_line line with
  | Some (Error msg) ->
    Answer { id = None; line_no; body = bad_request_body ~line_no msg }
  | Some (Ok Request.Ping) ->
    Answer
      {
        id = None;
        line_no;
        body = [ ("ok", Json.Bool true); ("op", Json.String "ping") ];
      }
  | Some (Ok Request.Stats) ->
    Answer
      {
        id = None;
        line_no;
        body =
          [
            ("ok", Json.Bool true);
            ("op", Json.String "stats");
            ("inflight", Json.Int (inflight t));
            ("cache", Json.Null);
          ];
      }
  | None -> (
    match Request.of_line line with
    | Error msg ->
      Answer { id = None; line_no; body = bad_request_body ~line_no msg }
    | Ok req ->
      Route
        { id = req.Request.id; line_no; hash = Request.graph_hash req })

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)

let sort_key (id, line_no) = (Option.value ~default:"" id, line_no)

let run_batch cfg ~produce ~emit =
  let t = create cfg in
  Fun.protect ~finally:(fun () -> teardown t) @@ fun () ->
  let requests = ref 0 and errors = ref 0 in
  let next_seq = ref 0 in
  let next_emit = ref 0 in
  let ready : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let sorted_acc = ref [] in
  let finished_input = ref false in
  let deliver ~key seq line =
    incr requests;
    if response_is_error line then incr errors;
    if cfg.sort then sorted_acc := (sort_key key, line) :: !sorted_acc
    else begin
      Hashtbl.replace ready seq line;
      while Hashtbl.mem ready !next_emit do
        emit (Hashtbl.find ready !next_emit);
        Hashtbl.remove ready !next_emit;
        incr next_emit
      done
    end
  in
  let drain_requested () =
    match cfg.drain with Some f -> Atomic.get f <> 0 | None -> false
  in
  let admit () =
    (* pull until the fleet's submission window is full; parked
       entries count so a dead owner only buys a bounded backlog *)
    while
      (not !finished_input)
      && (not (drain_requested ()))
      && inflight t + Queue.length t.parked
         < cfg.shards * cfg.inflight_per_shard
    do
      match produce () with
      | None -> finished_input := true
      | Some (line_no, line) -> (
        let seq = !next_seq in
        incr next_seq;
        match classify t (line_no, line) with
        | Answer { id; line_no; body } ->
          deliver ~key:(id, line_no) seq (render_parent t ~id body)
        | Route { id; line_no; hash } ->
          let e =
            {
              seq;
              e_id = Some id;
              e_line = line_no;
              payload = line;
              hash;
              replays = 0;
              rerouted = false;
            }
          in
          if not (try_dispatch t e) then Queue.add e t.parked)
    done
  in
  let flush_completed () =
    let done_ = t.completed in
    t.completed <- [];
    List.iter
      (fun (e, line) -> deliver ~key:(e.e_id, e.e_line) e.seq line)
      done_
  in
  let all_gave_up () = Array.for_all (fun s -> s.gave_up) t.slots in
  let finished () =
    !finished_input && Queue.is_empty t.parked && inflight t = 0
    && t.completed = []
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    if drain_requested () then t.draining <- true;
    step t ~now;
    flush_completed ();
    admit ();
    if all_gave_up () || (t.draining && inflight t = 0) then begin
      (* nowhere left to send the backlog: answer it structurally so
         every input line still gets exactly one response *)
      if drain_requested () then finished_input := true;
      Queue.iter
        (fun e ->
          deliver ~key:(e.e_id, e.e_line) e.seq
            (render_parent t ~id:e.e_id (unavailable_body ~line_no:e.e_line)))
        t.parked;
      Queue.clear t.parked;
      if all_gave_up () then finished_input := true
    end;
    if not (finished ()) then wait_io t ~timeout_s:0.02
  done;
  collect_stats t;
  if cfg.sort then
    List.iter
      (fun (_, line) -> emit line)
      (List.sort
         (fun (a, _) (b, _) -> compare a b)
         (List.rev !sorted_acc));
  let st = fleet_stats t ~requests:!requests ~errors:!errors in
  shutdown t;
  st

let run_lines cfg lines =
  let remaining = ref lines in
  let line_no = ref 0 in
  let produce () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      incr line_no;
      Some (!line_no, l)
  in
  let out = ref [] in
  let st = run_batch cfg ~produce ~emit:(fun line -> out := line :: !out) in
  (List.rev !out, st)

(* ------------------------------------------------------------------ *)
(* Front-daemon driver                                                 *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

type fconn = {
  f_fd : Unix.file_descr;
  f_buf : Buffer.t;
  mutable f_line : int;  (** per-connection numbering, like the daemon *)
  mutable f_eof : bool;
  mutable f_alive : bool;
  f_expected : int Queue.t;  (** global seqs in this conn's send order *)
  f_ready : (int, string) Hashtbl.t;
}

let run_front ?(on_ready = fun () -> ()) cfg ~socket_path ~drain =
  if cfg.sort then
    invalid_arg "Shard: sort is batch-only (a daemon stream has no end)";
  let conns : (Unix.file_descr, fconn) Hashtbl.t = Hashtbl.create 8 in
  let listen_fd = ref None in
  (* respawned children must not inherit the front socket or any
     client connection - they would hold them open past our close *)
  let child_cleanup () =
    (match !listen_fd with Some fd -> close_quiet fd | None -> ());
    Hashtbl.iter (fun fd _ -> close_quiet fd) conns
  in
  let t = create ~child_cleanup { cfg with drain = Some drain } in
  Fun.protect ~finally:(fun () -> teardown t) @@ fun () ->
  if Sys.file_exists socket_path then (
    try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 16;
  listen_fd := Some lfd;
  on_ready ();
  let accepting = ref true in
  let requests = ref 0 and errors = ref 0 in
  let next_seq = ref 0 in
  let owner_of_seq : (int, fconn) Hashtbl.t = Hashtbl.create 64 in
  let drop c =
    if c.f_alive then begin
      c.f_alive <- false;
      Hashtbl.remove conns c.f_fd;
      close_quiet c.f_fd
    end
  in
  let flush_conn c =
    let rec go () =
      match Queue.peek_opt c.f_expected with
      | Some seq when Hashtbl.mem c.f_ready seq ->
        let line = Hashtbl.find c.f_ready seq in
        Hashtbl.remove c.f_ready seq;
        ignore (Queue.pop c.f_expected);
        Hashtbl.remove owner_of_seq seq;
        if c.f_alive then begin
          match write_all c.f_fd (line ^ "\n") 0 (String.length line + 1) with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
            drop c
        end;
        go ()
      | _ -> ()
    in
    go ();
    if c.f_eof && Queue.is_empty c.f_expected then drop c
  in
  let deliver seq line =
    incr requests;
    if response_is_error line then incr errors;
    match Hashtbl.find_opt owner_of_seq seq with
    | None -> () (* connection long gone *)
    | Some c ->
      Hashtbl.replace c.f_ready seq line;
      flush_conn c
  in
  let submit c line =
    c.f_line <- c.f_line + 1;
    let seq = !next_seq in
    incr next_seq;
    Queue.add seq c.f_expected;
    Hashtbl.replace owner_of_seq seq c;
    match classify t (c.f_line, line) with
    | Answer { id; line_no = _; body } -> deliver seq (render_parent t ~id body)
    | Route { id; line_no; hash } ->
      let e =
        {
          seq;
          e_id = Some id;
          e_line = line_no;
          payload = line;
          hash;
          replays = 0;
          rerouted = false;
        }
      in
      if not (try_dispatch t e) then Queue.add e t.parked
  in
  let frame_lines c =
    let s = Buffer.contents c.f_buf in
    let rec go off =
      match String.index_from_opt s off '\n' with
      | None ->
        if off > 0 then begin
          Buffer.clear c.f_buf;
          Buffer.add_substring c.f_buf s off (String.length s - off)
        end
      | Some nl ->
        submit c (String.sub s off (nl - off));
        go (nl + 1)
    in
    go 0
  in
  (* one buffer for every client read: a fresh 4096-byte block per read
     is malloc'd and freed only at major GC *)
  let rbuf = Bytes.create 4096 in
  let read_conn c =
    match Unix.read c.f_fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
      c.f_eof <- true;
      if Queue.is_empty c.f_expected then drop c
    | n ->
      Buffer.add_subbytes c.f_buf rbuf 0 n;
      frame_lines c
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let stop_accepting () =
    if !accepting then begin
      accepting := false;
      close_quiet lfd;
      listen_fd := None;
      try Unix.unlink socket_path with Unix.Unix_error _ -> ()
    end
  in
  let poll_front () =
    let backlogged =
      inflight t + Queue.length t.parked
      >= cfg.shards * cfg.inflight_per_shard
    in
    let fds =
      (if !accepting && not backlogged then [ lfd ] else [])
      @ (if backlogged then []
         else
           Hashtbl.fold
             (fun fd c acc -> if c.f_eof then acc else fd :: acc)
             conns [])
      @ (Array.to_list t.slots
        |> List.filter_map (fun s ->
               Option.map (fun l -> Daemon.Client.fd l.client) s.link))
    in
    match Unix.select fds [] [] 0.02 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if Some fd = !listen_fd then (
            match Unix.accept lfd with
            | cfd, _ ->
              Hashtbl.replace conns cfd
                {
                  f_fd = cfd;
                  f_buf = Buffer.create 256;
                  f_line = 0;
                  f_eof = false;
                  f_alive = true;
                  f_expected = Queue.create ();
                  f_ready = Hashtbl.create 8;
                };
              Metrics_registry.incr "serve.connections"
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          else
            match Hashtbl.find_opt conns fd with
            | Some c -> read_conn c
            | None -> () (* a shard fd; pump picks it up below *))
        ready
  in
  let flush_completed () =
    let done_ = t.completed in
    t.completed <- [];
    List.iter (fun (e, line) -> deliver e.seq line) done_
  in
  let finished () =
    Atomic.get drain <> 0 && Queue.is_empty t.parked && inflight t = 0
    && t.completed = []
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    if Atomic.get drain <> 0 then begin
      t.draining <- true;
      stop_accepting ()
    end;
    poll_front ();
    step t ~now;
    flush_completed ();
    if
      t.draining
      && Array.for_all (fun s -> s.link = None) t.slots
      && not (Queue.is_empty t.parked)
    then begin
      (* draining with the whole fleet already gone: answer the
         backlog structurally rather than waiting on respawns that
         will never come *)
      Queue.iter
        (fun e ->
          deliver e.seq
            (render_parent t ~id:e.e_id (unavailable_body ~line_no:e.e_line)))
        t.parked;
      Queue.clear t.parked
    end
  done;
  stop_accepting ();
  collect_stats t;
  Hashtbl.fold (fun _ c acc -> c :: acc) conns [] |> List.iter drop;
  let st = fleet_stats t ~requests:!requests ~errors:!errors in
  shutdown t;
  st
