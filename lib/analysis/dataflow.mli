(** Generic dataflow analyses over the commutation DAG: schedules,
    slack, critical paths, live ranges and a policy-independent depth
    lower bound.

    Two schedule views are computed from one {!Commute.t}:

    - {e dependence levels} (contention-free ASAP/ALAP): the longest
      weighted dependency chain above/below each node, ignoring qubit
      contention.  Their difference is the node's {e slack} - how many
      steps it can slide without stretching the critical path; zero
      slack = on the critical path.  Barriers weigh 0.
    - a {e resource-constrained greedy ASAP schedule} (earliest step at
      or after all dependencies where every operand qubit is idle, with
      backfilling): its depth is achievable, so it upper-bounds what a
      commutation-aware scheduler can do with the given gates, and it
      never exceeds the order-tied {!Qaoa_circuit.Layering.depth}.

    The {b depth lower bound} is [max critical_path busy_bound] where
    [busy_bound] is the largest per-qubit non-barrier gate count: every
    commutation-respecting schedule must serialize each dependency chain
    {e and} each qubit's own gates, whatever the policy, so

    {v lower_bound <= asap_depth <= measured (Layering) depth v}

    holds by construction - the qcheck oracle in the test suite and the
    CI tokyo sweep both assert it.  The bound is policy-independent:
    compare any of the 7 compilation policies against it to see how much
    of their depth is structural and how much is scheduling waste. *)

type summary = {
  gates : int;  (** circuit length including barriers/measures *)
  lower_bound : int;
      (** [max critical_path busy_bound] - no commutation-respecting
          schedule of these gates can be shallower *)
  critical_path : int;
      (** longest weighted dependency chain (barriers weigh 0) *)
  busy_bound : int;  (** max per-qubit non-barrier gate count *)
  asap_depth : int;
      (** depth of the greedy resource-constrained schedule (achievable,
          so [lower_bound <= asap_depth]) *)
  measured_depth : int;
      (** order-tied {!Qaoa_circuit.Layering.depth} of the circuit as
          given ([asap_depth <= measured_depth]) *)
  total_slack : int;
      (** sum of per-gate slack over non-barrier gates: aggregate
          scheduling freedom *)
  live_pressure : int;
      (** max number of simultaneously live qubits (live = between first
          and last touching gate of the greedy schedule) *)
}

type t

val of_circuit : Qaoa_circuit.Circuit.t -> t
(** Build the DAG and run every analysis.  Traced as
    ["analysis.dataflow.analyze"]; bumps ["analysis.dataflow.runs"]. *)

val analyze : Qaoa_circuit.Circuit.t -> summary
(** [summary (of_circuit c)]. *)

val dag : t -> Commute.t
val summary : t -> summary

val asap_level : t -> int -> int
(** Contention-free earliest level of a node. *)

val alap_level : t -> int -> int
(** Latest level that does not stretch the critical path. *)

val slack : t -> int -> int
(** [alap_level - asap_level]; 0 = on the critical path. *)

val step : t -> int -> int
(** Greedy resource-constrained schedule step (barriers carry the fence
    time but occupy no step). *)

val critical : t -> int -> bool
(** Zero-slack non-barrier node. *)

val critical_edge : t -> int -> int -> bool
(** DAG edge [(i, j)] on a critical chain: both ends critical and [j]
    starts exactly when [i] finishes (level-wise). *)

val summary_to_json : summary -> Qaoa_obs.Json.t
(** Flat object with the eight summary fields, stable key order (the
    serving layer embeds it verbatim, so bytes must be deterministic). *)

val to_json : t -> Qaoa_obs.Json.t
(** Full DAG export ([qaoa-lint --dag-json]): [{"version": 1,
    "num_qubits": n, "summary": {...}, "nodes": [{"id", "gate",
    "qubits", "asap", "alap", "slack", "step", "critical"}, ...],
    "edges": [{"from", "to", "critical"}, ...]}]. *)

val to_dot : t -> string
(** Graphviz export ([qaoa-lint --dot]) with critical nodes and
    critical-path edges highlighted. *)
