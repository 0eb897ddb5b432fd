(** Named fault scenarios and sweep generation.

    A sweep is a list of scenarios, each a label plus the fault list to
    inject; the resilience experiment recompiles every workload under
    every scenario and reports degradation relative to {!baseline}. *)

type scenario = {
  label : string;  (** stable row label, e.g. ["dead*2+drop(20%)"] *)
  faults : Fault.t list;
}

val scenario : ?label:string -> Fault.t list -> scenario
(** [label] defaults to {!Fault.describe} of the faults. *)

val baseline : scenario
(** The healthy device: no faults, labelled ["healthy"]. *)

val dead_qubit_sweep : scenario list
(** One scenario per count of dead qubits: 1, 2 and 3. *)

val severed_coupling_sweep : scenario list
(** One scenario per count of severed couplings: 1, 2 and 4. *)

val drift_sweep : scenario list
(** One scenario per drift sigma: 0.1, 0.25 and 0.5. *)

val drop_sweep : scenario list
(** One scenario per dropped-calibration fraction: 0.1, 0.2 and 0.5. *)

val default : scenario list
(** {!baseline}, every per-axis sweep, plus the compound
    stress scenario [dead*2+drop(20%)] the acceptance criterion names
    (two random dead qubits and 20% of calibration entries missing). *)
