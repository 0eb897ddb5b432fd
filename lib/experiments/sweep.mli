(** Journal adapters for experiment work, and the one contract for work
    without a journal.

    {!Runner.run} journals at the finest granularity - one record per
    (experiment, strategy, instance, seed) compile - through {!trial}.
    Experiments whose inner loop is not a plain [Compile.compile] (ARG
    evaluation, iterative recompilation, the swap network, the fault
    sweep, ...) checkpoint at the granularity they naturally produce: a
    whole row of floats, or a single scalar.

    With a journal, the thunk runs at most once per key across all
    resumed runs, under {!Qaoa_journal.Supervisor.trial}: the returned
    value is the journal's own view of it ([decode (encode v)]), so
    resumed and uninterrupted sweeps aggregate bit-identical inputs, and
    a quarantined key (the thunk raised) comes back as [None] - sweeps
    drop the row and keep going.  Without a journal the thunk runs
    directly and its exceptions propagate. *)

val trial :
  ?journal:Qaoa_journal.Journal.t ->
  key:string ->
  encode:('a -> Qaoa_obs.Json.t) ->
  decode:(Qaoa_obs.Json.t -> 'a) ->
  (unit -> 'a) ->
  'a option
(** [Some (f ())] without a journal; with one, the supervised trial
    under [key], [None] if it is quarantined.
    @raise Failure naming [key] if the journaled payload does not
    decode. *)

val row :
  ?journal:Qaoa_journal.Journal.t ->
  key:string ->
  label:string ->
  (unit -> float list) ->
  (string * float list) option
(** One row ([label, values]) as a {!trial} under [key].  The payload
    is a JSON list of numbers ([null] for a non-finite value); any
    other payload raises [Failure] naming [key]. *)

val value :
  ?journal:Qaoa_journal.Journal.t ->
  key:string ->
  (unit -> float) ->
  float option
(** A single scalar {!trial} (e.g. one instance's ARG). *)
