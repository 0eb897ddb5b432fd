(** The batch-compilation service: JSONL requests in, JSONL responses
    out, fanned across a {!Pool} of domains, answered from a {!Cache}
    when possible, computed under {!Supervise} fault containment, and
    optionally journaled to disk through {!Persist}.

    {b Determinism.}  Responses are emitted in {e input order} (the
    pool's reorder buffer), and every response is a function of its
    request alone (per-request seeds, no state shared across requests,
    no timestamps unless [timings]), so the output stream is
    byte-identical for any worker count and request order.  The one
    exception is an answer under a [supervise] deadline, which depends
    on the wall clock.

    {b Fault containment.}  A worker exception, structured compile
    error or deadline blowout is contained to its own request as a
    structured [ok:false] response - it never aborts the run and never
    alters any other request's bytes.  Retries and the deadline are
    configured via [supervise]; see {!Supervise} for the taxonomy.  A
    policy that needs calibration on a device without any (VIC on
    tokyo) answers ["missing_calibration"]; a client that wants a
    fallback names a calibration-free policy.

    {b Persistence.}  With [persist] set, every first-attempt success
    is appended (checksummed, flushed) to the cache journal as it is
    stored; a later run opened with [~resume:true] reloads the journal
    and answers repeats from the warm cache byte-identically.

    {b Drain.}  With [drain] set (see
    {!Qaoa_journal.Signals.install_drain}), a delivered SIGINT/SIGTERM
    stops admission of new requests; in-flight requests finish and are
    emitted in order, the run winds down normally, and the caller exits
    with the recorded 130/143.

    {b Responses.}  Success:
    [{"id":..., "ok":true, "device":..., "policy":..., "qubits":n,
    "depth":..., "gates":..., "two_qubit":..., "swaps":...}] plus
    ["verified":true] when the request asked for verification,
    ["qasm":"..."] when it asked for the compiled program,
    and ["attempts":k] after a retried success.
    Failure:
    [{"id":..., "ok":false, "error":{"kind":..., "detail":...}}] with
    the {!Qaoa_core.Compile.error_kind} taxonomy plus ["bad_request"]
    (unparseable line - [id] is [null] and a ["line"] field locates
    it), ["unknown_device"] and ["internal"] (contained worker
    exception).  A bad line never aborts the run: it
    produces a structured error response and the exit code is
    unchanged.

    {b Framing.}  Batch input and each daemon connection are framed
    the same way ({!Framer}), in time linear in the bytes read.  A
    request line may hold up to {!max_line_bytes} bytes; a longer one
    takes its line number, is answered with one [bad_request] whose
    detail names the cap as soon as it passes it, and is discarded up
    to its newline, while the lines around it carry on.  An
    unterminated last line is answered like any other.

    With [timings] each response additionally carries ["cached"] and
    ["ms"] diagnostics - these are {e not} deterministic; leave
    [timings] off when diffing runs.

    {b Control verbs.}  A line of the form [{"op":"ping"}] or
    [{"op":"stats"}] ({!Request.control}) is answered without touching
    the compile path: [ping] returns
    [{"id":null,"ok":true,"op":"ping"}] (a health probe - it
    traverses the full submit-compute-respond pipeline, so a pong
    proves the service is live, not merely the process), and
    [stats] returns the cache-lookup taxonomy plus the in-flight gauge
    so [lookups = hits + misses + rejects] can be asserted per process
    over the wire.  Control verbs do not count as requests and never
    touch the cache taxonomy; an unknown op is a ["bad_request"].

    Counters: [serve.requests], [serve.errors], [serve.retries],
    [serve.contained], [serve.cache.*]; histogram
    [serve.request_ms]. *)

type config = {
  workers : int;  (** worker domains, >= 1 *)
  queue_capacity : int;  (** bounded in-flight window, >= 1 *)
  timings : bool;  (** append non-deterministic [cached]/[ms] fields *)
  cache : Cache.t option;  (** [None] disables the artifact cache *)
  persist : Persist.t option;  (** journal cache insertions to disk *)
  supervise : Supervise.config;  (** retry / deadline policy *)
  drain : int Atomic.t option;
      (** graceful-drain flag from
          {!Qaoa_journal.Signals.install_drain}: nonzero stops
          admission *)
  inflight : int Atomic.t;
      (** up-down gauge of admitted-but-unanswered requests, maintained
          by the daemon loop and reported by the [stats] control verb *)
}

val default_config : unit -> config
(** [Pool.default_workers ()] workers, queue 256, no timings, a fresh
    4096-entry cache, no persistence, {!Supervise.default_config}, no
    drain flag, a fresh inflight gauge. *)

type stats = {
  requests : int;  (** responses emitted, parse errors included *)
  errors : int;  (** responses with [ok:false] *)
  cache_stats : Cache.stats option;
}

val run : config -> in_channel -> out_channel -> stats
(** Serve every line of the input channel, an unterminated last line
    included.  @raise Invalid_argument on a non-positive
    [workers]/[queue_capacity]. *)

val run_lines : config -> string list -> string list * stats
(** In-memory variant for tests and the bench harness: request lines
    in, response lines (no trailing newlines) out.  A line over
    {!max_line_bytes} is answered as {!run} answers it. *)

val gen_corpus : ?device:string -> seed:int -> count:int -> unit -> string list
(** Deterministic request corpus for smoke tests and benchmarks:
    [count] distinct seeded Erdos-Renyi MaxCut requests (12-18 nodes,
    policies cycling over the calibration-free strategies, every fifth
    request also asking for verification) against [device] (default
    ["tokyo"]). *)

val max_line_bytes : int
(** 4 MiB: above the largest request a client should send (a K256
    graph is about 0.3 MB of JSON, the p = 1 K256 ansatz as QASM about
    1.8 MB), and the most a batch run or a daemon connection buffers
    for one line. *)

(**/**)

(** The daemon reuses the per-line machinery directly. *)

(** Line framing, linear in the bytes fed: {!run}'s input, each daemon
    connection and {!Daemon.Client} all frame with it. *)
module Framer : sig
  type t

  val create : max_line:int -> t

  val feed : t -> Bytes.t -> int -> int -> (string option -> unit) -> unit
  (** [feed t b off len emit] frames [len] bytes of [b] from [off]:
      [emit (Some line)] for each complete line (without its newline),
      [emit None] once for each line that passes [max_line], as soon as
      it does; the rest of that line is discarded up to its newline.
      A trailing fragment waits for the next feed. *)

  val finish : t -> (string option -> unit) -> unit
  (** End of input: [emit] an unterminated last line, if any. *)
end

type outcome

val outcome_error : outcome -> bool

val make_handler : config -> int * string option -> outcome
(** One shared device table + supervisor for all calls; safe to call
    from worker domains.  [(line_no, None)] is a line the framer
    reported as over {!max_line_bytes}: a [bad_request] naming the cap.
    @raise Invalid_argument as {!run}. *)

val render : config -> outcome -> string
