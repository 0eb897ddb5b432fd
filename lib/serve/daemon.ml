module Metrics_registry = Qaoa_obs.Metrics_registry

module Framer = Serve.Framer

(* One client connection.  All mutation happens on the calling domain
   (produce/consume both run there); workers only ever carry the
   pointer through the pool. *)
type conn = {
  fd : Unix.file_descr;
  framer : Framer.t;
  mutable line_no : int;  (** per-connection 1-based line numbering *)
  mutable inflight : int;  (** requests submitted, response not yet written *)
  mutable eof : bool;  (** peer finished writing; flush then close *)
  mutable alive : bool;
}

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

module Client = struct
  type t = {
    fd : Unix.file_descr;
    framer : Framer.t;
    lines : string Queue.t;  (** framed replies not yet returned *)
    rbuf : Bytes.t;  (** read scratch, reused by every recv *)
    mutable eof : bool;
  }

  exception Timeout of string

  (* One connect attempt.  [None] = the daemon is not (yet) listening:
     the socket file may not exist, or it exists but nothing accepts -
     both are normal while a freshly started daemon binds. *)
  let try_connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _) ->
      Unix.close fd;
      None
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      Unix.close fd;
      None
    | exception e ->
      Unix.close fd;
      raise e

  let connect ?(timeout_s = 10.0) path =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match try_connect path with
      | Some fd ->
        {
          fd;
          (* replies are not capped *)
          framer = Framer.create ~max_line:max_int;
          lines = Queue.create ();
          rbuf = Bytes.create 4096;
          eof = false;
        }
      | None ->
        if Unix.gettimeofday () >= deadline then
          raise
            (Timeout
               (Printf.sprintf "%s not accepting within %.1fs" path timeout_s))
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    in
    go ()

  let send_line t line =
    write_all t.fd (line ^ "\n") 0 (String.length line + 1)

  let recv_line ?(timeout_s = 30.0) t =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match Queue.take_opt t.lines with
      | Some l -> Some l
      | None ->
        if t.eof then None
        else begin
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then
            raise (Timeout (Printf.sprintf "no reply within %.1fs" timeout_s));
          (match Unix.select [ t.fd ] [] [] (Float.min remaining 0.25) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
            match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
            | 0 -> t.eof <- true
            | n ->
              Framer.feed t.framer t.rbuf 0 n
                (Option.iter (fun l -> Queue.add l t.lines))
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              t.eof <- true));
          go ()
        end
    in
    go ()

  let request ?timeout_s t line =
    send_line t line;
    recv_line ?timeout_s t

  let close t =
    t.eof <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
end

let run ?(on_ready = fun () -> ()) (config : Serve.config) ~socket_path
    ~drain =
  let handler = Serve.make_handler config in
  (* a client that disconnects mid-response must cost us an EPIPE, not
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists socket_path then (
    try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  on_ready ();
  (* The wake pipe: a worker writes one byte per finished job, so the
     select below returns as soon as a response is ready to write. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* EAGAIN means the pipe is full, hence already readable: the wakeup
     is not lost *)
  let rec on_complete () =
    match Unix.single_write_substring wake_w "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> on_complete ()
  in
  (* One read buffer for every socket and pipe read of this run: a
     4096-byte block is too large for the minor heap, so one per read
     would be malloc'd and freed only at major GC, growing the malloc
     arena with the request rate. *)
  let rbuf = Bytes.create 4096 in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let pending : (conn * (int * string option)) Queue.t = Queue.create () in
  let accepting = ref true in
  let requests = ref 0 and errors = ref 0 in
  let drop c =
    if c.alive then begin
      c.alive <- false;
      Hashtbl.remove conns c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  (* Each framed line, or over-long line, takes the next line number;
     at EOF an unterminated last line is answered, as in batch mode. *)
  let enqueue c line =
    c.line_no <- c.line_no + 1;
    c.inflight <- c.inflight + 1;
    Queue.add (c, (c.line_no, line)) pending
  in
  let read_conn c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
      Framer.finish c.framer (enqueue c);
      c.eof <- true;
      if c.inflight = 0 then drop c
    | n -> Framer.feed c.framer rbuf 0 n (enqueue c)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Empty the wake pipe; the bytes carry no data, only "something
     finished", and the driver drains every ready response next. *)
  let rec drain_wake () =
    match Unix.read wake_r rbuf 0 (Bytes.length rbuf) with
    | n when n = Bytes.length rbuf -> drain_wake ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_wake ()
  in
  let poll_io () =
    let fds =
      wake_r
      :: (if !accepting then [ listen_fd ] else [])
      @ Hashtbl.fold (fun fd c acc -> if c.eof then acc else fd :: acc) conns []
    in
    (* Finished jobs and new input both wake this select, so no
       response waits on the timeout.  The timeout is only the backstop
       for the drain flag: OCaml 5 may run the signal handler on another
       domain, so this select need not see EINTR, and a drain is
       noticed within 50ms. *)
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = wake_r then drain_wake ()
          else if fd = listen_fd then (
            match Unix.accept listen_fd with
            | cfd, _ ->
              Hashtbl.replace conns cfd
                {
                  fd = cfd;
                  framer = Framer.create ~max_line:Serve.max_line_bytes;
                  line_no = 0;
                  inflight = 0;
                  eof = false;
                  alive = true;
                };
              Metrics_registry.incr "serve.connections"
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          else
            match Hashtbl.find_opt conns fd with
            | Some c -> read_conn c
            | None -> ())
        ready
  in
  let stop_accepting () =
    if !accepting then begin
      accepting := false;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ()
    end
  in
  let rec produce () =
    if not (Queue.is_empty pending) then begin
      Atomic.incr config.Serve.inflight;
      Pool.Item (Queue.pop pending)
    end
    else if Atomic.get drain <> 0 then begin
      (* graceful drain: stop accepting; already-submitted requests
         finish and their responses flow out below *)
      stop_accepting ();
      Pool.Eof
    end
    else begin
      poll_io ();
      if Queue.is_empty pending then Pool.Block else produce ()
    end
  in
  let consume _seq (c, outcome) =
    Atomic.decr config.Serve.inflight;
    incr requests;
    if Serve.outcome_error outcome then incr errors;
    if c.alive then begin
      let line = Serve.render config outcome ^ "\n" in
      try write_all c.fd line 0 (String.length line)
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> drop c
    end;
    c.inflight <- c.inflight - 1;
    if c.eof && c.inflight = 0 then drop c
  in
  (* This domain only frames lines and renders responses, so a 32k-word
     (256 KB) minor heap is enough for it; the 256k-word (2 MB) default
     is pure resident-set cost here.  OCaml 5 minor heaps are per
     domain: the workers spawned below keep the default. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 32768 };
  Fun.protect
    ~finally:(fun () ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = gc.Gc.minor_heap_size };
      Unix.close wake_r;
      Unix.close wake_w)
    (fun () ->
      ignore
        (Pool.stream_poll ~workers:config.Serve.workers
           ~queue_capacity:config.Serve.queue_capacity ~on_complete ~produce
           ~consume (fun (c, item) -> (c, handler item))));
  stop_accepting ();
  List.iter drop (Hashtbl.fold (fun _ c acc -> c :: acc) conns []);
  {
    Serve.requests = !requests;
    errors = !errors;
    cache_stats = Option.map Cache.stats config.Serve.cache;
  }
