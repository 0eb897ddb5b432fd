(** Per-trial supervision: journal lookup, one attempt, quarantine.

    A sweep runs thousands of independent trials; one pathological
    instance must cost at most its own run, never the campaign.  The
    supervisor wraps a single trial with

    - {b journal lookup}: a trial whose key is already recorded returns
      its journaled payload without executing (the resume path), and a
      journaled quarantine is honoured without re-running the failure;
    - {b one attempt}: the thunk runs once;
    - {b quarantine}: if it raises, the trial is recorded as a
      structured failure and the sweep moves on.

    Trials must be deterministic functions of their key for resumed
    sweeps to reproduce uninterrupted ones.  Reseeded retries belong to
    the compile layer ({!Qaoa_obs.Deadline.retry}), not here. *)

type failure = {
  f_key : string;
  f_attempts : int;  (** attempts made (always 1 for a fresh failure) *)
  f_errors : string list;  (** one rendering per attempt, in order *)
}

type 'a outcome =
  | Completed of 'a
  | Quarantined of failure
      (** permanently failed - aggregate layers drop the trial and
          count it, mirroring how fault sweeps treat exhausted chains *)

val failure_to_json : failure -> Qaoa_obs.Json.t
(** [{"attempts": n, "errors": [...]}], the quarantine record's
    payload. *)

val failure_of_json : string -> Qaoa_obs.Json.t -> failure
(** Inverse of {!failure_to_json}; any attempt count reloads, so a
    journal holding multi-attempt quarantines still resumes. *)

val trial :
  journal:Journal.t ->
  key:string ->
  encode:('a -> Qaoa_obs.Json.t) ->
  decode:(Qaoa_obs.Json.t -> 'a) ->
  (unit -> 'a) ->
  'a outcome
(** Run one supervised trial.

    A completed trial appends a [Done] record and a quarantined trial a
    [Quarantined] record (one attempt, the exception's
    {!Printexc.to_string}), and the value returned for a fresh
    completion is [decode (encode v)] - the exact value a resumed run
    will read back, which is what makes interrupted-then-resumed sweeps
    byte-identical to uninterrupted ones.  A {!Chaos.Injected}
    simulated crash propagates instead of quarantining.  Work without a
    journal is not supervised: its caller runs it directly and lets its
    failures propagate.

    @raise Failure naming [key] when [decode] raises [Failure] on the
    journaled payload (a record of another shape, as an older schema
    wrote it). *)
