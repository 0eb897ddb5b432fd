(** Daemon mode: the serving loop behind a Unix-domain socket.

    Clients connect to the socket and speak exactly the batch protocol
    - JSONL requests in, JSONL responses out - so
    [nc -U sock < corpus.jsonl] works unchanged.  Connections are
    multiplexed through one select loop feeding the shared worker
    pool, so every connection shares the device table and the artifact
    cache.  No other state crosses requests: apart from answers under a
    deadline, a response's bytes do not depend on which connection or
    request came first.

    {b Ordering.}  Requests are submitted in arrival order and the
    pool's reorder buffer hands responses back in that same global
    order, so each connection receives its responses in the order it
    sent its requests.  Responses interleave with other connections'
    work (a blocked response can wait on an earlier slow request from
    another connection - acceptable for a batch-compilation service).

    {b Latency.}  A worker that finishes a job writes one byte to a
    self-pipe in the select set, so its response is written as soon as
    it is ready: a warm request/await round trip costs well under a
    millisecond, not a poll interval.  The select's 50ms timeout is
    only the backstop that notices the [drain] flag when no signal
    interrupts the select.

    {b Framing.}  Each connection is framed exactly as batch input is
    ({!Serve.Framer}): a request line may hold up to
    {!Serve.max_line_bytes} bytes, a longer one gets one [bad_request]
    with its line number and the connection carries on, and at EOF an
    unterminated last line is still answered.

    {b Fault containment.}  A poisoned request line is a structured
    [ok:false] response on its own connection; a client that
    disconnects mid-flight costs an EPIPE on its own writes.  Neither
    takes down the daemon or perturbs other connections' bytes.

    {b Drain.}  When the [drain] flag goes nonzero (SIGINT/SIGTERM via
    {!Qaoa_journal.Signals.install_drain}), the daemon stops accepting
    (the socket file is unlinked), finishes every submitted request,
    writes the responses out, closes all connections and returns; the
    caller then flushes its cache journal and exits 130/143.  An idle
    daemon notices the flag within 50ms.

    Counters: [serve.connections], plus everything {!Serve} counts;
    the [stats] verb reports the in-flight gauge. *)

module Client : sig
  (** Line-framed client for the daemon protocol: connect with a
      deadline, send a JSONL line, await the framed reply.  Every loop
      here is EINTR-safe and every wait is bounded.

      Blocking and single-threaded by design: {!request} sends one
      line and awaits its reply. *)

  type t

  exception Timeout of string
  (** A bounded wait expired: {!connect} found nothing accepting
      within its deadline, or {!request} saw no complete reply within
      its. *)

  val connect : ?timeout_s:float -> string -> t
  (** Connect to the daemon socket at the given path, retrying while
      the socket file is missing or nothing accepts yet (the normal
      window while a freshly started daemon binds) until [timeout_s]
      (default 10s) expires.  @raise Timeout when the deadline passes.
      @raise Unix.Unix_error for non-retryable connect failures. *)

  val request : ?timeout_s:float -> t -> string -> string option
  (** Write [line ^ "\n"] (completing short writes, retrying EINTR),
      then await the next framed line (default deadline 30s).  [None]
      means the daemon closed the connection (EOF with no buffered
      line).  Only sound when no other request is in flight on this
      connection (responses are FIFO).
      @raise Timeout when the deadline expires first.
      @raise Unix.Unix_error (e.g. [EPIPE]) if the daemon is gone. *)

  val close : t -> unit
  (** Close the descriptor.  Idempotent. *)
end

val run :
  ?on_ready:(unit -> unit) ->
  Serve.config ->
  socket_path:string ->
  drain:int Atomic.t ->
  Serve.stats
(** Bind [socket_path] (replacing a stale socket file), serve until
    [drain] goes nonzero, and return the run's stats.  [on_ready] fires
    once the socket is listening (CI uses it to synchronize).  While it
    serves, the calling domain runs with a 32k-word minor heap (it only
    frames and renders; the workers keep the default), restored on
    return.

    @raise Invalid_argument on a non-positive [workers] /
    [queue_capacity].
    @raise Unix.Unix_error if the socket cannot be bound. *)
