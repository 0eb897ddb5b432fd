(** Per-source error budgets of compiled circuits.

    The success probability is a product over gates; on a log scale it
    decomposes additively, which makes "where does the error go?"
    answerable: per gate kind (CNOTs from CPHASE lowering vs CNOTs from
    SWAPs vs one-qubit gates) and per physical coupling.  VIC's entire
    premise is that this budget is dominated by a few bad couplings -
    the report makes that visible for any compiled circuit. *)

type entry = {
  label : string;
  count : int;  (** gates charged to this source *)
  log_loss : float;  (** sum of log(1 - error); <= 0 *)
}

type t = {
  by_kind : entry list;  (** "cphase-cnot", "swap-cnot", "1q" *)
  by_coupling : entry list;  (** one entry per used coupling, worst first *)
  total_log_loss : float;
  success_probability : float;
}

val analyze :
  Qaoa_hardware.Calibration.t -> Qaoa_circuit.Circuit.t -> t
(** The circuit must still contain its CPHASE/SWAP structure (i.e. a
    router result, not a pre-decomposed circuit): each gate is lowered
    with {!Qaoa_circuit.Decompose.gate}, and every basis gate it yields
    is charged its {!Qaoa_hardware.Success.log_gate} term under the
    source gate's kind.  No ["1q"] entry is made when the one-qubit
    rate is 0.
    @raise Failure if a coupling lacks a calibrated rate
    ({!Qaoa_hardware.Calibration.cnot_error}). *)

val worst_couplings : t -> entry list
(** The 5 couplings of largest absolute log loss, worst first. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report (kinds, then the worst couplings). *)
