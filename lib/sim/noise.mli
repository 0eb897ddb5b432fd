(** Stochastic-Pauli (Monte-Carlo trajectory) noise simulation.

    This is the substitute for running compiled circuits on IBM cloud
    hardware (DESIGN.md, substitution 2).  Each trajectory executes the
    basis-decomposed circuit on the statevector simulator and, after every
    gate, injects a uniformly random non-identity Pauli on the gate's
    qubits with probability equal to that gate's calibrated error rate
    (per-edge CNOT rates; scalar one-qubit rate).  Readout error flips
    each measured bit independently.

    The depolarizing-channel average over trajectories reproduces the
    first-order behaviour the paper's success-probability metric models:
    more gates and less reliable couplings lose more probability mass
    from the ideal output distribution. *)

type t = {
  calibration : Qaoa_hardware.Calibration.t;
  apply_readout : bool;
}

val create : ?apply_readout:bool -> Qaoa_hardware.Calibration.t -> t
(** [apply_readout] defaults to [true]. *)

val run_trajectory : Qaoa_util.Rng.t -> t -> Qaoa_circuit.Circuit.t -> Statevector.t
(** One noisy execution.  The circuit must already be hardware-compliant
    (CNOT qubit pairs must have calibration entries).
    @raise Not_found if a CNOT acts on a pair without a calibrated rate. *)

val sample_noisy :
  Qaoa_util.Rng.t ->
  t ->
  Qaoa_circuit.Circuit.t ->
  shots:int ->
  trajectories:int ->
  int array
(** [shots] noisy measurement outcomes spread over [trajectories]
    independent noisy executions (shots are drawn round-robin so each
    trajectory contributes [shots / trajectories] of them; readout flips
    are applied per shot). *)

val expected_success_probability : t -> Qaoa_circuit.Circuit.t -> float
(** Analytic product of per-gate success rates of the decomposed circuit -
    must agree with {!Qaoa_hardware.Success} and is cross-checked in tests. *)
