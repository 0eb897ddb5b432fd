(** Journal adapters for row/value-granular experiment work.

    {!Runner.run} journals at the finest granularity - one record per
    (experiment, strategy, instance, seed) compile.  Experiments whose
    inner loop is not a plain [Compile.compile] (ARG evaluation,
    mapper/router shootouts, iterative recompilation, ...) checkpoint at
    the granularity they naturally produce: a whole printed row, or a
    single scalar.  Both adapters are deterministic-replay caches: with
    a journal the thunk runs at most once per key across all resumed
    runs, and the returned floats are the journal's own view of the
    value ([decode (encode v)]), so resumed and uninterrupted sweeps
    aggregate bit-identical inputs.

    Quarantined keys (the thunk raised under supervision) come back as
    [None]; sweeps drop the row and keep going. *)

val row :
  ?journal:Qaoa_journal.Journal.t ->
  key:string ->
  label:string ->
  (unit -> float list) ->
  (string * float list) option
(** One figure/ablation row ([label, values]) as a supervised trial
    under [key].  Without a journal the thunk runs under quarantine
    with nothing persisted. *)

val value :
  ?journal:Qaoa_journal.Journal.t ->
  key:string ->
  (unit -> float) ->
  float option
(** A single scalar trial (e.g. one instance's ARG). *)
