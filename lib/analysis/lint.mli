(** Execution-free circuit lint engine (`qaoa-lint`).

    A fixed table of rules ({!builtin_rules}).  Each entry states its
    stable id, severity, the kind of circuit it judges and its fix hint
    once; its check only locates messages, and {!run_rule} stamps the
    entry's fields on each finding.  All rules are static - they
    inspect the gate list, the device coupling graph and the
    calibration snapshot, never a simulator - so they run on circuits
    of any size.

    The device decides what a circuit is: linted with a device, it is a
    compiled artifact on physical qubits; without one, a logical
    circuit.

    Built-in rules:

    {v
 id     severity  judges    fires when
 QL001  ERROR     compiled  two-qubit gate on an uncoupled physical pair
 QL002  WARN      compiled  used coupling edge has no calibration entry
 QL003  ERROR     both      a gate touches a wire after its measurement
 QL004  INFO      logical   allocated qubit never touched by any gate
 QL005  WARN      both      adjacent pair Optimize would cancel or merge
 QL006  WARN      compiled  trailing SWAP absorbable into readout relabeling
 QL007  WARN      both      decomposed depth above the --max-depth budget
 QL008  WARN      compiled  estimated success probability below threshold
 QL009  WARN      compiled  SWAP with zero commutation slack (critical path)
 QL010  INFO      both      commuting CPHASEs consecutive on a qubit, layers apart
 QL011  INFO      both      qubit idles 5+ layers between last gate and measure
 QL012  WARN      both      redundant pair reachable only through commuting gates
 QL013  WARN      both      depth above --lower-bound-factor x the commutation bound
    v}

    QL009 and QL010 run on the {!Dataflow} commutation DAG of the
    context circuit (built lazily, shared across rules); QL013 analyzes
    the {e decomposed} circuit so its bound and depth share a gate
    basis.

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

type applies = Logical | Compiled | Both
(** The circuits a rule judges: [Compiled] when the context has a
    device, [Logical] when it has none, or [Both]. *)

type context
(** A circuit, its device when it is compiled, the rules' thresholds,
    and what several rules share: the gate array, built at once, and
    the ASAP layers, the {!Dataflow} DAG and the plain redundancy scan,
    each built on first use. *)

val context :
  ?device:Qaoa_hardware.Device.t ->
  ?max_depth:int ->
  ?min_success_prob:float ->
  ?lower_bound_factor:float ->
  Qaoa_circuit.Circuit.t ->
  context
(** The thresholds arm QL007, QL008 and QL013; each rule skips when its
    threshold is absent, and the device-dependent rules skip without a
    device. *)

val dataflow : context -> Dataflow.t
(** The commutation-DAG dataflow the DAG-powered rules use, built on
    the first call. *)

type rule = {
  id : string;
  severity : severity;  (** severity of the findings the rule emits *)
  applies : applies;
  fix_hint : string;
  check : context -> ((int * int) option * string) list;
      (** each located message: an inclusive gate span (or [None] for a
          whole-circuit finding) and its text *)
}

val builtin_rules : rule list

val run_rule : context -> rule -> finding list
(** The rule's check on the context, whatever it [applies] to, each
    message stamped with the rule's id, severity and fix hint. *)

val run : context -> finding list
(** {!run_rule} for every rule of {!builtin_rules} that applies to the
    context's circuit, findings in rule order then gate order.
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
