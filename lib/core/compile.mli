(** Unified compilation entry point - one call dispatching to the NAIVE
    baseline, the initial-mapping baselines (GreedyV, GreedyE), and the
    paper's four methodologies (QAIM, IP, IC, VIC), all driven through the
    same backend router so their results are directly comparable, exactly
    as in the paper's evaluation (Sec. V). *)

type strategy =
  | Naive  (** random mapping + random CPHASE order *)
  | Greedy_v  (** GreedyV mapping + random order *)
  | Greedy_e  (** GreedyE mapping + random order *)
  | Vqa_alloc  (** VQA reliability-aware allocation + random order *)
  | Qaim  (** QAIM mapping + random order *)
  | Ip  (** QAIM mapping + IP-parallelized order *)
  | Ic of int option  (** QAIM + incremental compilation (packing limit) *)
  | Vic of int option  (** QAIM + variation-aware IC (packing limit) *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** [Naive; Greedy_v; Greedy_e; Vqa_alloc; Qaim; Ip; Ic None; Vic None].
    [Vqa_alloc] and [Vic] require device calibration. *)

val strategy_of_string : string -> strategy option
(** Parse "naive" | "greedyv" | "greedye" | "vqa" | "qaim" | "ip" | "ic"
    | "vic" (case-insensitive). *)

type options = {
  seed : int;  (** drives every randomized choice (default 42) *)
  measure : bool;  (** append measurements (default true) *)
  peephole : bool;
      (** run {!Qaoa_circuit.Optimize} on the decomposed compiled circuit
          (CNOT cancellation across SWAP/CPHASE lowerings; default
          false to keep the paper's metrics unassisted) *)
  verify : bool;
      (** run {!Qaoa_verify.Check} translation validation on the routed
          circuit before decomposition; a rejection surfaces as
          {!Error} [(Verification_rejected _)] (semantic checks
          auto-skip past
          {!Qaoa_verify.Check.default_max_semantic_qubits} qubits;
          default false) *)
  lint : bool;
      (** run the {!Qaoa_analysis.Lint} rules on the compiled circuit
          (role [Compiled], against the target device) and record the
          findings in [result.lint_findings]; accounted as the ["lint"]
          phase in the per-phase breakdown.  Findings never fail the
          compile - callers decide (the CLI's [--lint] exits non-zero on
          ERROR findings; default false) *)
  analyze : bool;
      (** run the {!Qaoa_analysis.Dataflow} commutation-DAG analysis on
          the decomposed compiled circuit and record the summary in
          [result.static]; accounted as the ["analyze"] phase.  The
          summary's [lower_bound] is policy-independent, so all 7
          policies can be compared against the same floor; the
          ["compile.depth_over_lower_bound"] histogram records
          [metrics.depth / lower_bound] (default false) *)
  deadline_s : float option;
      (** wall-clock budget for one compile; the routing loops poll it
          cooperatively, surfacing {!Error} [(Deadline_exceeded _)] at
          the next poll past the budget.  [compile_with_fallback]
          interprets it as the budget of the {e whole} chain.  Must be
          positive when given (default [None] = unbounded) *)
  router : Qaoa_backend.Router.config;
  qaim : Qaim.config;
}

val default_options : options

(** {1 Failure taxonomy}

    Everything that can go wrong during a compile, as data: fault-
    injection sweeps and fallback chains match on these instead of
    parsing exception strings. *)

type error =
  | Too_many_qubits of { needed : int; available : int }
      (** The problem has more variables than the device has qubits. *)
  | Missing_calibration of {
      strategy : strategy;
      coupling : (int * int) option;
    }
      (** A calibration-dependent strategy (VQA, VIC) on a device with no
          snapshot ([coupling = None]), or a lookup of a specific
          unrecorded coupling. *)
  | Unroutable of { strategy : strategy; detail : string }
      (** A two-qubit gate's operands sit in disconnected coupling
          components - no SWAP sequence can ever satisfy it (typical
          after fault injection severs a bridge coupling). *)
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
      (** The cooperative wall-clock budget ran out mid-compile. *)
  | Verification_rejected of { strategy : strategy; detail : string }
      (** [options.verify] was set and translation validation found a
          structural or semantic discrepancy. *)
  | Strategy_failed of { strategy : strategy; detail : string }
      (** Residual ad-hoc failure ([Invalid_argument] / [Failure]) from
          strategy internals, wrapped by {!compile_result}. *)

exception Error of error

val error_kind : error -> string
(** Stable lower-snake-case tag (["unroutable"], ...) - also the suffix
    of the ["compile.error.<kind>"] counters. *)

val error_to_string : error -> string
(** One-line human-readable rendering (also registered as the
    [Printexc] printer for {!Error}). *)

type phase_time = {
  phase : string;
      (** ["mapping"], ["ordering"], ["routing"], ["verify"] (only with
          [options.verify]), ["decomposition"], ["metrics"], ["analyze"]
          (only with [options.analyze]) or ["lint"] (only with
          [options.lint]); for IC/VIC, ordering is interleaved with
          routing inside [Ic.compile] and is accounted under
          ["routing"] *)
  wall_s : float;
  cpu_s : float;
}

type result = {
  strategy : strategy;
  circuit : Qaoa_circuit.Circuit.t;
      (** hardware-compliant circuit on physical qubits *)
  initial_mapping : Qaoa_backend.Mapping.t;
  final_mapping : Qaoa_backend.Mapping.t;
  swap_count : int;
  compile_wall_s : float;  (** wall-clock seconds spent compiling *)
  compile_cpu_s : float;
      (** CPU seconds spent compiling — the paper-facing figure *)
  phase_times : phase_time list;
      (** per-phase breakdown in execution order; the wall times sum to
          the whole of [compile_wall_s] except a few clock reads *)
  metrics : Qaoa_circuit.Metrics.t;  (** of the decomposed circuit *)
  static : Qaoa_analysis.Dataflow.summary option;
      (** commutation-DAG dataflow summary of the decomposed circuit
          (depth lower bound, critical path, slack, live pressure);
          [None] unless [options.analyze].  Invariant:
          [static.lower_bound <= metrics.depth] for every policy (both
          are computed on the same decomposed gate basis) *)
  lint_findings : Qaoa_analysis.Lint.finding list;
      (** findings of the ["lint"] phase; [[]] unless [options.lint] *)
}

val compile :
  ?options:options ->
  strategy:strategy ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Ansatz.params ->
  result
(** Compile the p-level QAOA ansatz of the problem for the device.

    {b Reentrancy.}  [compile] is safe to call concurrently from
    multiple domains on shared [device]/[problem] values (the serving
    layer's worker pool does exactly that): every randomized choice
    draws from a per-call [Rng.create options.seed], the router/SABRE
    tie-break streams are seeded per call from [options.router.seed],
    and the only cross-call state - the per-device distance-matrix
    memo ({!Qaoa_hardware.Profile}) and the telemetry registries
    ({!Qaoa_obs}) - is mutex-guarded or domain-sharded.  Identical
    (options, strategy, device, problem, params) inputs produce
    bit-identical circuits on any domain of any worker count.
    @raise Error with the structured taxonomy: [Too_many_qubits] when the
    problem needs more qubits than the device has, [Missing_calibration]
    when VQA/VIC is requested on an uncalibrated device, [Unroutable]
    when operands land in disconnected coupling components,
    [Deadline_exceeded] past [options.deadline_s], and
    [Verification_rejected] when [options.verify] finds a discrepancy. *)

val compile_result :
  ?options:options ->
  strategy:strategy ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Ansatz.params ->
  (result, error) Stdlib.result
(** {!compile} as a total function: {!Error} becomes [Error e], and any
    residual [Invalid_argument] / [Failure] from strategy internals
    becomes [Error (Strategy_failed _)].  Each error increments the
    ["compile.error.<kind>"] counter. *)

(** {1 Graceful degradation} *)

val default_chain : strategy list
(** [[Vic None; Ic None; Ip; Qaim; Greedy_e; Naive]] - best methodology
    first, degrading towards the assumption-free baseline.  [Naive] only
    needs a connected-enough register, so a chain ending in it survives
    anything short of a structurally impossible problem. *)

type attempt = {
  attempt_strategy : strategy;
  attempt_seed : int;  (** the seed this attempt compiled under *)
  attempt_error : error option;  (** [None] = the winning attempt *)
}

type fallback = {
  fallback_result : result;  (** the first successful compile *)
  attempts : attempt list;
      (** full trail in execution order; the last entry is the winner
          (its [attempt_error] is [None]), every earlier entry records
          why that strategy/seed was abandoned *)
}

val retryable : error -> bool
(** Whether reseeding the same strategy could plausibly succeed:
    [true] for unroutable, verification-rejected and residual strategy
    failures; [false] for structural impossibilities (too many qubits,
    missing calibration) and an exhausted deadline. *)

val compile_with_fallback :
  ?options:options ->
  ?retries:int ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Ansatz.params ->
  (fallback, attempt list) Stdlib.result
(** Walk {!default_chain} until a strategy compiles.
    Each strategy gets [1 + retries] tries (default [retries = 1])
    through {!Qaoa_obs.Deadline.retry}: a {!retryable} failure is
    reseeded deterministically
    ([options.seed + Qaoa_obs.Deadline.reseed_stride * global_attempt_index];
    the very first attempt uses [options.seed] verbatim), while any
    other failure skips straight to the next strategy.
    [options.deadline_s] budgets the {e whole} chain: every attempt
    compiles under the remaining wall clock, and once it is spent the
    chain stops with the trail so far.
    Never raises on compile failures - [Error trail] reports an
    exhausted chain.  Counters: ["compile.fallback.attempts"],
    ["compile.fallback.recovered"] (a non-first attempt won),
    ["compile.fallback.exhausted"].
    @raise Invalid_argument on negative [retries]. *)

val success_probability : ?include_readout:bool -> Qaoa_hardware.Device.t -> result -> float
(** {!Qaoa_hardware.Success.of_circuit} on the compiled circuit. *)

val logical_outcome : result -> int -> int
(** Translate a sampled physical bitstring (basis index over device
    qubits) into the logical bitstring via the final mapping: logical bit
    [l] is physical bit [phys(final_mapping, l)]. *)
