(** Device calibration data: per-coupling CNOT error rates plus scalar
    one-qubit-gate and readout error rates.

    VIC (paper Sec. IV.D) and the success-probability metric (Sec. II)
    consume these.  Edge keys are unordered: looking up [(u, v)] and
    [(v, u)] returns the same rate.  A coupling with no recorded rate
    is charged {!unrecorded_error} by every consumer that tolerates
    partial snapshots. *)

type t

val create :
  ?single_qubit_error:float ->
  ?readout_error:float ->
  (int * int * float) list ->
  t
(** [create pairs] with [(u, v, cnot_error)] triples.
    [single_qubit_error] defaults to 1e-3, [readout_error] to 0.
    @raise Invalid_argument on a self-coupling [(u, u)] or when two
    triples name the same unordered coupling (so a snapshot can never
    silently lose or shadow a rate). *)

val uniform :
  ?single_qubit_error:float ->
  ?readout_error:float ->
  cnot_error:float ->
  (int * int) list ->
  t
(** Same error on every coupling. *)

val random :
  Qaoa_util.Rng.t ->
  ?single_qubit_error:float ->
  ?readout_error:float ->
  ?mu:float ->
  ?sigma:float ->
  (int * int) list ->
  t
(** Per-edge CNOT errors drawn from a clamped normal distribution; the
    paper's Fig. 11(a) experiment uses mu = 1.0e-2, sigma = 0.5e-2 (the
    defaults here), clamped to [1e-4, 0.5]. *)

val id : t -> int
(** Unique identifier of the snapshot (monotone creation counter); lets
    consumers memoize data derived from a calibration. *)

val cnot_error : t -> int -> int -> float
(** @raise Failure naming the missing coupling if it has no recorded
    rate (["Calibration.cnot_error: no rate recorded for coupling
    (u, v)"]).  Callers that can degrade gracefully should prefer
    {!cnot_error_opt} or {!cnot_error_or}. *)

val cnot_error_opt : t -> int -> int -> float option

val cnot_error_or : default:float -> t -> int -> int -> float
(** {!cnot_error_opt} with a fallback rate for unrecorded couplings. *)

val single_qubit_error : t -> float
val readout_error : t -> float

val cnot_success : t -> int -> int -> float
(** [1 - cnot_error]. *)

val cphase_success : t -> int -> int -> float
(** CNOT success squared: the RZ in the CPHASE decomposition is virtual
    (Sec. IV.D). *)

val edges : t -> (int * int) list
(** Couplings with recorded rates, [(u, v)] with [u < v], sorted. *)

val entries : t -> (int * int * float) list
(** Recorded [(u, v, cnot_error)] triples, [(u, v)] with [u < v],
    sorted - the inverse of {!create}. *)

val filter_edges : (int -> int -> float -> bool) -> t -> t
(** Keep only the entries satisfying the predicate (scalar error rates
    are preserved).  The result is a fresh snapshot with a new {!id}.
    Fault injection uses this to drop or sever calibration entries. *)

val map_errors : (int -> int -> float -> float) -> t -> t
(** Rewrite every recorded rate (e.g. to apply calibration drift).  The
    result is a fresh snapshot with a new {!id}. *)

val worst_edge : t -> (int * int) * float
(** Coupling with the highest CNOT error.  @raise Invalid_argument if no
    edges are recorded. *)

val unrecorded_error : t -> float
(** The CNOT error charged to a coupling the snapshot records no rate
    for: the worst recorded rate, or the 0.5 clamp ceiling when no
    recorded rate is above 0 (an empty or all-zero snapshot).  One rule
    for VIC's weighted distances ({!Profile.weighted_distances}), VQA,
    lint rule QL008 and the resilience sweep's success score, so a
    partial snapshot is never scored better than the data supports. *)
