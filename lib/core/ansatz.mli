(** QAOA parameterized-quantum-circuit construction.

    The p-level ansatz for a problem Hamiltonian C (Sec. I, Fig. 1(b)):

      |psi(gamma, beta)> =
        prod_{l=1..p} [ U_B(beta_l) U_C(gamma_l) ]  H^(x)n  |0>

    with U_C(g) = exp(-i g C) realized as one CPHASE per quadratic term
    (plus one RZ per linear term) and U_B(b) = prod_q RX(2 b, q).

    The CPHASE gates within one cost layer commute, so any permutation of
    the cost-layer gate list yields the same state - the property every
    proposed methodology exploits.  [cost_layer_gates] exposes the raw
    list so that IP/IC/VIC can order it themselves. *)

type params = { gammas : float array; betas : float array }
(** One (gamma, beta) pair per level; lengths must agree. *)

val params_p1 : gamma:float -> beta:float -> params

val levels : params -> int
(** @raise Invalid_argument if the two arrays differ in length. *)

val cost_layer_gates :
  ?order:(int * int) list -> Problem.t -> gamma:float -> Qaoa_circuit.Gate.t list
(** Gates of one cost layer U_C(gamma).  [order], when given, must be a
    permutation of {!Problem.cphase_pairs} and fixes the CPHASE emission
    order (the knob the compilation strategies turn); default is the
    sorted pair order.  Linear-term RZ gates follow the CPHASEs. *)

val cphase_gate : Problem.t -> gamma:float -> int * int -> Qaoa_circuit.Gate.t
(** The CPHASE gate of one quadratic term at the given gamma - the unit
    IC/VIC schedule one at a time.  The problem's coefficient table is
    built once per problem and gamma, when the function is applied to
    them, so apply it once per level and map the result over the pairs:
    [List.map (cphase_gate problem ~gamma) pairs].  @raise
    Invalid_argument if the pair is not a quadratic term of the
    problem. *)

val linear_gates : Problem.t -> gamma:float -> Qaoa_circuit.Gate.t list
(** RZ gates of the linear terms of one cost layer (empty for MaxCut). *)

val mixer_gates : Problem.t -> beta:float -> Qaoa_circuit.Gate.t list
(** RX(2 beta) on every variable qubit. *)

val circuit :
  ?measure:bool ->
  ?orders:(int * int) list list ->
  Problem.t ->
  params ->
  Qaoa_circuit.Circuit.t
(** Full logical ansatz: Hadamard wall, then p cost+mixer blocks, then
    (by default) measurement of every qubit.  [orders] gives a CPHASE
    order per level (defaults to sorted order for all levels). *)

val state : Problem.t -> params -> Qaoa_sim.Statevector.t
(** Noiseless output state of the (unmeasured) ansatz. *)

val expectation : Problem.t -> params -> float
(** Exact <psi| C |psi> via the statevector - the objective the
    classical optimization loop maximizes. *)

val approximation_ratio_of_samples : Problem.t -> int array -> float
(** Mean cost of sampled bitstrings divided by the true maximum cost
    (Sec. II "Approximation Ratio"). *)
