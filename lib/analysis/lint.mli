(** Execution-free circuit lint engine (`qaoa-lint`).

    A fixed set of rules ({!builtin_rules}), each with a stable id, a
    default severity, the circuit roles it applies to, and a checker
    producing findings with a gate-span location and an optional fix
    hint.  All rules are static - they inspect the gate list, the device
    coupling graph and the calibration snapshot, never a simulator - so
    they run on circuits of any size.

    Built-in rules:

    {v
 id     name                  severity  roles     fires when
 QL001  uncoupled-pair        ERROR     compiled  two-qubit gate on an uncoupled physical pair
 QL002  missing-calibration   WARN      compiled  used coupling edge has no calibration entry
 QL003  gate-after-measure    ERROR     both      a gate touches a wire after its measurement
 QL004  idle-qubit            INFO      logical   allocated qubit never touched by any gate
 QL005  redundant-adjacent    WARN      both      adjacent pair Optimize would cancel or merge
 QL006  swap-sandwich         WARN      compiled  trailing SWAP absorbable into readout relabeling
 QL007  depth-exceeded        WARN      both      decomposed depth above the --max-depth budget
 QL008  low-success-prob      WARN      compiled  estimated success probability below threshold
 QL009  critical-swap         WARN      compiled  SWAP with zero commutation slack (critical path)
 QL010  missed-packing        INFO      both      commuting CPHASEs consecutive on a qubit, layers apart
 QL011  measure-delay         INFO      both      qubit idles 5+ layers between last gate and measure
 QL012  commuting-redundancy  WARN      both      redundant pair reachable only through commuting gates
 QL013  depth-above-bound     WARN      both      depth above --lower-bound-factor x the commutation bound
    v}

    QL009-QL012 run on the {!Dataflow} commutation DAG of the context
    circuit (built lazily, shared across rules); QL013 analyzes the
    {e decomposed} circuit so its bound and depth share a gate basis.

    Exit-code convention (used by the CLI and the CI gate): 0 for a
    clean report, 2 when any ERROR finding is present, 1 when a finding
    at or above the [--deny] severity is present. *)

type severity = Info | Warn | Error

val severity_name : severity -> string
(** ["INFO"], ["WARN"], ["ERROR"]. *)

val severity_of_string : string -> severity option
(** Case-insensitive inverse of {!severity_name}. *)

val severity_compare : severity -> severity -> int
(** Orders [Info < Warn < Error]. *)

type finding = {
  rule : string;  (** stable rule id, e.g. ["QL001"] *)
  severity : severity;
  message : string;
  gate_span : (int * int) option;
      (** inclusive gate-index range the finding anchors to *)
  fix_hint : string option;
}

type role = Logical | Compiled

type context = {
  circuit : Qaoa_circuit.Circuit.t;
  role : role;
  device : Qaoa_hardware.Device.t option;
      (** device-dependent rules skip silently when absent *)
  max_depth : int option;  (** QL007 threshold; rule skips when absent *)
  min_success_prob : float option;  (** QL008 threshold; skips when absent *)
  lower_bound_factor : float option;
      (** QL013 depth budget as a multiple of the commutation depth
          lower bound; rule skips when absent *)
  dataflow : Dataflow.t Lazy.t;
      (** commutation-DAG dataflow of [circuit] as given, built on first
          use and shared by the DAG-powered rules (QL009/QL010) *)
  plain_redundancies : (int * int) list Lazy.t;
      (** [Optimize.redundancies ~through_commuting:false] on [circuit],
          built on first use and shared by QL005 and QL012 *)
}

val context :
  ?device:Qaoa_hardware.Device.t ->
  ?max_depth:int ->
  ?min_success_prob:float ->
  ?lower_bound_factor:float ->
  role:role ->
  Qaoa_circuit.Circuit.t ->
  context
(** Build a context; [dataflow] is a lazy {!Dataflow.of_circuit} and
    [plain_redundancies] a lazy plain redundancy scan on the circuit. *)

type rule = {
  id : string;
  name : string;  (** kebab-case mnemonic *)
  severity : severity;  (** severity of the findings the rule emits *)
  roles : role list;
  check : context -> finding list;
}

val builtin_rules : rule list

val run : context -> finding list
(** Run every rule of {!builtin_rules} applicable to the context's
    role, findings in rule order then gate order.
    Traced as ["analysis.lint.run"]; bumps the
    ["lint.findings.<severity>"] counters. *)

val max_severity : finding list -> severity option
val count : severity -> finding list -> int

val exit_code : ?deny:severity -> finding list -> int
(** [2] if any [Error] finding, else [1] if any finding at or above
    [deny] (default [Error]), else [0]. *)

(** {1 Reporters} *)

val to_text : finding list -> string
(** One line per finding ([SEVERITY id gates i-j: message]), indented
    fix hints, and a trailing summary line. *)

val report_to_json : finding list -> Qaoa_obs.Json.t
(** [{"version": 1, "findings": [...], "summary": {...}}]. *)

val report_of_json : Qaoa_obs.Json.t -> (finding list, string) result
(** Inverse of {!report_to_json} (the CI gate uses it to prove the JSON
    report round-trips). *)
