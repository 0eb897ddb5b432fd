(** As-soon-as-possible (ASAP) scheduling of a circuit into layers of
    concurrently executable gates.

    Two consecutive gates can execute in the same time step iff they act on
    disjoint qubit sets (paper Sec. I); [Barrier] forces a fence across all
    qubits.  Circuit depth - the paper's critical-path metric (Sec. V.A) -
    is the number of layers of this schedule.

    This is the repository's one {e order-tied} scheduler: every gate
    waits for the previous gate on each of its qubits, in program order.
    The commutation-aware schedules (which may reorder commuting gates)
    live in [Qaoa_analysis.Dataflow], over the commutation DAG. *)

val gate_layers : Circuit.t -> int array
(** Per-gate ASAP layer in program order (index [i] is the [i]-th gate
    of {!Circuit.gates}); barriers get [-1].  The other views below are
    derived from the same pass. *)

val layers : Circuit.t -> Gate.t list list
(** Gates grouped by time step, in execution order.  Barriers are consumed
    (they constrain the schedule but appear in no layer). *)

val depth : Circuit.t -> int
(** Number of layers, without materializing them (runs on every
    compile, through {!Metrics.of_circuit}). *)

val check_layers_disjoint : Gate.t list list -> bool
(** Validation helper: no two gates in the same layer share a qubit. *)
