(** Experiment runner: compile instance sets under several strategies and
    aggregate the paper's circuit-quality metrics (mean depth, gate count,
    compilation time, SWAPs, and - when the device is calibrated - success
    probability).

    With a journal, every (strategy, instance) compile becomes one
    supervised, journaled trial (key
    ["<experiment>/<strategy>/i<instance>/s<seed>"]): completed trials
    are skipped on resume, a failing trial is quarantined
    ({!Qaoa_journal.Supervisor.trial}), and aggregates are computed from
    the journal's view of each trial so resumed and uninterrupted
    sweeps agree bit for bit on every seed-deterministic metric. *)

type aggregate = {
  strategy : Qaoa_core.Compile.strategy;
  mean_depth : float;
  mean_gates : float;
  mean_cx : float;
  mean_swaps : float;
  mean_time : float;  (** CPU seconds *)
  mean_success : float option;  (** None when the device is uncalibrated *)
  instances : int;  (** trials contributing to the means *)
  quarantined : int;
      (** journaled trials dropped as quarantined (always [0] without
          a journal, where failures raise instead) *)
}

val run :
  ?base_seed:int ->
  ?options:Qaoa_core.Compile.options ->
  ?journal:Qaoa_journal.Journal.t ->
  ?experiment:string ->
  device:Qaoa_hardware.Device.t ->
  strategies:Qaoa_core.Compile.strategy list ->
  params:Qaoa_core.Ansatz.params ->
  Qaoa_core.Problem.t list ->
  aggregate list
(** Each instance [i] is compiled with seed [base_seed + i] (all
    strategies see the same seed for a given instance, so comparisons are
    paired).  Order of the result follows [strategies].

    [journal] turns each compile into a supervised trial; [experiment]
    (required alongside it) prefixes the trial keys and must be unique
    per logical sweep (include sweep knobs such as packing limits or
    workload kinds so keys never collide).  Compile failures without a
    journal propagate.
    @raise Invalid_argument if [journal] is given without [experiment]. *)

val find : aggregate list -> Qaoa_core.Compile.strategy -> aggregate
(** @raise Failure naming the missing strategy and the aggregates
    actually present. *)

val ratio :
  aggregate list ->
  num:Qaoa_core.Compile.strategy ->
  den:Qaoa_core.Compile.strategy ->
  (aggregate -> float) ->
  float
(** Ratio of a metric between two strategies, e.g.
    [ratio res ~num:Qaim ~den:Naive (fun a -> a.mean_depth)]. *)

val ratios :
  aggregate list ->
  den:Qaoa_core.Compile.strategy ->
  nums:Qaoa_core.Compile.strategy list ->
  (aggregate -> float) list ->
  float list
(** {!ratio} of each metric for each numerator, metric-major:
    [ratios res ~den:Naive ~nums:[Greedy_v; Qaim] [depth; gates]] is
    [GreedyV depth; QAIM depth; GreedyV gates; QAIM gates]. *)
