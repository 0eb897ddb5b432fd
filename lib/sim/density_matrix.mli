(** Exact mixed-state simulation via density matrices.

    Complements the Monte-Carlo trajectory sampler ({!Noise}): instead of
    averaging random Pauli injections, the density matrix evolves the
    exact noise channel, so small systems get noise-free-of-sampling
    expectations.  The test suite uses it to validate the trajectory
    sampler (trajectory averages must converge to the density-matrix
    result) - and it doubles as a reference implementation for
    channel-level noise models.

    Memory is O(4^n); the constructor refuses n > 13 (a 13-qubit matrix
    is already 2 * 8 bytes * 4^13 = 1 GiB).  For the paper's ARG
    workloads (12 qubits) prefer trajectories; for validation (< 10
    qubits) this is exact.

    Representation: row-major complex matrix rho with the same
    little-endian basis ordering as {!Statevector}. *)

type t

val create : int -> t
(** |0...0><0...0| on [n] qubits.  @raise Invalid_argument if [n < 0] or
    [n > 13]. *)

val of_statevector : Statevector.t -> t
(** The pure state's projector. *)

val num_qubits : t -> int

val probability : t -> int -> float
(** Diagonal entry (real part) of a basis index. *)

val probabilities : t -> float array

val trace : t -> float
(** Should be 1 up to float error (invariant-tested). *)

val purity : t -> float
(** tr(rho^2): 1 for pure states, 1/2^n for the maximally mixed state. *)

val apply_gate : t -> Qaoa_circuit.Gate.t -> unit
(** rho <- U rho U+ (in place).  [Barrier]/[Measure] are no-ops. *)

val apply_circuit : t -> Qaoa_circuit.Circuit.t -> unit

val depolarize_1q : t -> float -> int -> unit
(** One-qubit depolarizing channel with error probability [p]: with
    probability p the qubit suffers a uniform Pauli (X, Y or Z each with
    p/3). *)

val depolarize_2q : t -> float -> int -> int -> unit
(** Two-qubit depolarizing channel: with probability p a uniform
    non-identity two-qubit Pauli (each of the 15 with p/15) - the exact
    channel whose stochastic unravelling {!Noise.run_trajectory}
    samples. *)

val apply_noisy_circuit : Qaoa_hardware.Calibration.t -> Qaoa_circuit.Circuit.t -> t
(** Evolve |0..0> through the basis-decomposed circuit, applying
    {!depolarize_2q} with the pair's calibrated CNOT error after every
    CNOT and {!depolarize_1q} with the one-qubit rate after every
    one-qubit gate - the channel-exact counterpart of
    {!Noise.run_trajectory}. *)

val expectation_diag : t -> (int -> float) -> float
(** Expectation of a diagonal observable. *)
