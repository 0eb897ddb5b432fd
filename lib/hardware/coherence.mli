(** Decoherence model: per-qubit relaxation/dephasing times and gate
    durations.

    The paper's motivation (Sec. II) is that deeper circuits spend more
    wall-clock time and lose more state to decoherence; its
    success-probability metric covers gate errors only.  This module adds
    the missing time dimension: given a schedule of the compiled circuit,
    each qubit accumulates exp(-t_active / T1_q) decay over the interval
    between its first gate and its measurement (idle slots included -
    qubits wait in superposition).  The product over qubits is the
    decoherence factor; multiplied with the gate-error product it yields
    an estimated success probability in the spirit of Tannu & Qureshi's
    ESP. *)

type t = {
  t1 : float array;  (** per-qubit relaxation time (seconds) *)
  t2 : float array;  (** per-qubit dephasing time; min(T1, T2) drives decay *)
  gate_duration_1q : float;  (** seconds per one-qubit gate layer *)
  gate_duration_2q : float;  (** seconds per CNOT layer *)
}

val create :
  ?gate_duration_1q:float ->
  ?gate_duration_2q:float ->
  t1:float array ->
  t2:float array ->
  unit ->
  t
(** Durations default to IBM-typical 50 ns (1q) and 300 ns (2q).
    @raise Invalid_argument if the arrays differ in length. *)

val uniform :
  ?gate_duration_1q:float ->
  ?gate_duration_2q:float ->
  num_qubits:int ->
  t1:float ->
  t2:float ->
  unit ->
  t

val random :
  Qaoa_util.Rng.t ->
  ?mu_t1:float ->
  ?sigma_t1:float ->
  num_qubits:int ->
  unit ->
  t
(** T1 drawn from a clamped normal (defaults mu 50 us, sigma 15 us);
    T2 drawn as a uniform fraction in [0.5, 1] of 2 T1 capped at 1.5 T1. *)

val circuit_duration : t -> Qaoa_circuit.Circuit.t -> float
(** Wall-clock estimate: each ASAP layer of the decomposed circuit costs
    the duration of its slowest gate. *)

type schedule = Asap | Alap

val active_window :
  ?schedule:schedule -> Qaoa_circuit.Circuit.t -> (int * int) option array
(** Per qubit, the (first, last) layer indices of the decomposed
    circuit's schedule in which the qubit hosts a gate; [None] for
    untouched qubits.  [Asap] (default) starts gates eagerly; [Alap]
    sinks them toward their consumers, which shortens windows for qubits
    whose first gate can wait. *)

val decoherence_factor :
  ?schedule:schedule -> t -> Qaoa_circuit.Circuit.t -> float
(** Product over qubits of exp(-active_time_q / min(T1_q, T2_q)), where
    active time spans the qubit's first to last scheduled layer.
    Neither schedule dominates in general: ALAP shortens windows with
    head slack (late first use) but can lengthen ones with tail slack
    (early last use), so compare both when estimating a circuit's
    exposure. *)

val estimated_success_probability :
  t -> Calibration.t -> Qaoa_circuit.Circuit.t -> float
(** {!Success.of_circuit} (the gate-error product) times
    {!decoherence_factor} - the ESP-style combined estimate.
    @raise Failure if a CNOT's coupling has no recorded rate. *)
