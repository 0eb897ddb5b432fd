(** Generic seeded differential-fuzzing engine with shrinking.

    The engine is deliberately agnostic of what a case is: the QAOA
    pipeline sweep (problems x policies x topologies) instantiates it from
    {!Qaoa_experiments.Differential}, and the test suite instantiates it
    with synthetic oracles.  A case runner returns [None] on agreement and
    [Some detail] on a discrepancy; exceptions raised by the runner are
    caught and reported as failures too, so a crashing compile shrinks
    like a miscompiling one. *)

type 'a failure = {
  case : 'a;  (** the originally failing case *)
  detail : string;
  shrunk : 'a;  (** smallest still-failing case reached by shrinking *)
  shrunk_detail : string;
  shrink_steps : int;  (** successful shrink steps taken *)
}

type 'a stats = {
  cases_run : int;
  shrink_runs : int;  (** extra case executions spent shrinking *)
  failures : 'a failure list;  (** in discovery order *)
}

val run :
  ?shrink:('a -> 'a list) ->
  run_case:('a -> string option) ->
  'a list ->
  'a stats
(** Run every case, shrinking each failure greedily: repeatedly move to
    the first candidate from [shrink] that still fails, spending at most
    200 extra executions per failure.  [shrink] defaults to no
    shrinking. *)

val pp_stats :
  ?case_repro:('a -> string option) ->
  case_name:('a -> string) ->
  Format.formatter ->
  'a stats ->
  unit
(** Human-readable summary: counts, then one block per failure with the
    shrunk reproducer first.  [case_repro], when provided, renders the
    shrunk case as a standalone artifact (the pipeline sweep prints the
    compiled circuit as OpenQASM) appended indented under the failure;
    a [None] repro - e.g. the case crashes before producing a circuit -
    is silently omitted.  Repro rendering must not raise. *)
