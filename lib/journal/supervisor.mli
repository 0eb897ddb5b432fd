(** Per-trial supervision: cache, deadline, bounded reseeded retries,
    quarantine.

    A sweep runs thousands of independent trials; one pathological
    instance must cost at most its own budget, never the campaign.  The
    supervisor wraps a single trial with

    - {b journal lookup}: a trial whose key is already recorded returns
      its journaled payload without executing (the resume path), and a
      journaled quarantine is honoured without re-running the failure;
    - {b one wall-clock deadline} spanning all attempts (reusing
      {!Qaoa_obs.Deadline}; the thunk receives it to thread into
      cooperative cancellation points such as
      [Compile.options.deadline_s]);
    - {b bounded retries} with deterministic reseeding: the thunk gets
      the attempt index and derives its seed as
      [seed + Qaoa_obs.Deadline.reseed_stride * attempt], the stride of
      {!Qaoa_obs.Deadline.retry};
    - {b quarantine}: after [tries] failed attempts the trial is
      recorded as a structured failure and the sweep moves on.

    Trials must be deterministic functions of their key (and attempt
    index) for resumed sweeps to reproduce uninterrupted ones. *)

type failure = {
  f_key : string;
  f_attempts : int;  (** attempts actually made *)
  f_errors : string list;  (** one rendering per attempt, in order *)
}

type 'a outcome =
  | Completed of 'a
  | Quarantined of failure
      (** permanently failed - aggregate layers drop the trial and
          count it, mirroring how fault sweeps treat exhausted chains *)

val failure_to_json : failure -> Qaoa_obs.Json.t
val failure_of_json : string -> Qaoa_obs.Json.t -> failure

val trial :
  ?journal:Journal.t ->
  ?deadline_s:float ->
  ?tries:int ->
  key:string ->
  encode:('a -> Qaoa_obs.Json.t) ->
  decode:(Qaoa_obs.Json.t -> 'a) ->
  (attempt:int -> deadline:Qaoa_obs.Deadline.t option -> 'a) ->
  'a outcome
(** Run one supervised trial.

    Without a journal the trial still gets the deadline/retry/quarantine
    treatment, only nothing is persisted.  With one, a completed trial
    appends a [Done] record and a quarantined trial a [Quarantined]
    record, and the value returned for a fresh completion is
    [decode (encode v)] - the exact value a resumed run will read back,
    which is what makes interrupted-then-resumed sweeps byte-identical
    to uninterrupted ones.

    [tries] defaults to 1 (no retry); [deadline_s] to unbounded.  A
    {!Qaoa_obs.Deadline.Exceeded} escaping an attempt consumes the whole
    trial budget, so it quarantines immediately instead of burning
    retries on an already-spent clock.
    @raise Invalid_argument if [tries < 1] or [deadline_s <= 0]. *)
