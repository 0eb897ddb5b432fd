(** Compiled-circuit success probability (paper Sec. II).

    The success probability of a circuit is the product of the success
    probabilities (1 - error rate) of its individual gates, evaluated on
    the basis-decomposed circuit: per-coupling CNOT rates and the scalar
    one-qubit rate.  Measurements are not charged, as in the paper.
    Fig. 10 compares VIC against IC on exactly this metric.  This is the
    one definition of the product: [Qaoa_core.Compile], lint rule QL008
    and [Qaoa_core.Error_budget] all score gates here. *)

val log_gate :
  ?unrecorded:float ->
  Calibration.t ->
  Qaoa_circuit.Gate.t ->
  float
(** [log (1 - error)] of one basis gate: the coupling's rate for a
    CNOT, the one-qubit rate for a one-qubit gate, [0] for a
    measurement or a barrier.  [unrecorded], when given, is the rate charged to a CNOT on
    a coupling with no recorded rate.
    @raise Failure if a CNOT's coupling has no recorded rate and no
    [unrecorded] rate is given ({!Calibration.cnot_error}).
    @raise Invalid_argument on CPHASE or SWAP (lower them with
    {!Qaoa_circuit.Decompose.gate} first). *)

val of_circuit :
  ?unrecorded:float ->
  Calibration.t ->
  Qaoa_circuit.Circuit.t ->
  float
(** Product of {!log_gate} terms over the decomposed circuit.
    @raise Failure if a CNOT pair has no calibrated rate and no
    [unrecorded] rate is given. *)
