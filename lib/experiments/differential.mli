(** Differential fuzzing of the whole compilation pipeline.

    Instantiates the generic {!Qaoa_verify.Fuzz} engine with the concrete
    sweep the paper's claims rest on: random problem graphs x compilation
    policies x device topologies, each case compiled end-to-end and then
    cross-checked three ways -

    - {!Qaoa_verify.Check.validate}: structural + semantic translation
      validation of the routed circuit against its logical source;
    - metric accounting: the [Compile.result.metrics] record must agree
      with metrics recomputed from the circuit, the recorded swap count
      with the SWAP gates present, and the CPHASE count with the
      problem's quadratic terms;
    - compliance: {!Qaoa_backend.Compliance} and the verifier must agree
      on coupling violations (both empty on a healthy compile).

    Everything is seeded, so a failing case is a reproducer by value; the
    engine additionally shrinks it toward the smallest failing graph. *)

type case = {
  seed : int;  (** drives graph generation and every compile choice *)
  nodes : int;
  kind : Workload.graph_kind;
  topology : string;  (** {!Qaoa_hardware.Topologies.by_name} key *)
  strategy : Qaoa_core.Compile.strategy;
  p : int;  (** ansatz levels *)
}

val case_name : case -> string
(** e.g. "seed=17 n=9 ER(p=0.3) tokyo IC p=1". *)

val default_strategies : Qaoa_core.Compile.strategy list
(** The paper's seven policies: NAIVE, GreedyV, GreedyE, QAIM, IP, IC,
    VIC. *)

val default_topologies : string list
(** ["tokyo"; "melbourne"; "grid6x6"; "linear16"; "ring16"]. *)

val device_of_topology : string -> Qaoa_hardware.Device.t
(** Resolve a topology name, attaching a fixed-seed synthetic calibration
    when the bundled device has none (VIC needs one).
    @raise Invalid_argument on unknown names. *)

val run_case : ?max_semantic_qubits:int -> case -> string option
(** Compile and cross-check one case; [None] on agreement, [Some detail]
    otherwise.  Whenever the statevector oracle delivers a semantic
    verdict, the case is re-validated with the phase-polynomial oracle
    and any disagreement between the two verdicts is itself a failure -
    the small-register differential evidence backing the canonicalizer's
    large-register verdicts. *)

val repro : case -> string option
(** Recompile the case and render its compiled circuit as OpenQASM 2.0
    (with a [//] header naming the case) - the [case_repro] argument the
    CLI passes to {!Qaoa_verify.Fuzz.pp_stats} so failure reports carry a
    standalone reproducer.  [None] when the compile itself raises. *)

val shrink : case -> case list
(** Smaller-first candidates: fewer graph nodes (parity-corrected for
    regular graphs), then a single ansatz level. *)

val cases :
  ?seed:int ->
  ?count:int ->
  ?topologies:string list ->
  ?strategies:Qaoa_core.Compile.strategy list ->
  ?max_nodes:int ->
  unit ->
  case list
(** [count] (default 100) seeded graph/topology instances, each expanded
    across all [strategies] - so the default sweep yields [7 * count]
    validations.  Graph families are drawn from ER(0.3), ER(0.5),
    3-regular and Barabasi-Albert(2).  Node counts are drawn uniformly from
    [[6, max_nodes]] ([max_nodes] defaults to 12). *)

val fuzz :
  ?seed:int ->
  ?count:int ->
  ?topologies:string list ->
  ?strategies:Qaoa_core.Compile.strategy list ->
  ?max_nodes:int ->
  ?max_semantic_qubits:int ->
  unit ->
  case Qaoa_verify.Fuzz.stats
(** Generate {!cases} and run them through {!Qaoa_verify.Fuzz.run} with
    {!shrink}. *)
