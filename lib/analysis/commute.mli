(** Commutation DAG over a circuit: the dependency structure every
    schedule must respect, and nothing more.

    Nodes are gates (ids in circuit order); an edge [i -> j] exists only
    between {e genuinely non-commuting} pairs under the sound relation
    of {!Qaoa_circuit.Gate.commutes}: diagonal gates (Z, RZ, U1, CPHASE)
    commute through each other whatever qubits they share (the property
    behind every QAOA cost layer), equal-axis rotations on a shared
    qubit commute, a CNOT commutes with diagonals on its control and
    X-axis gates on its target, disjoint-qubit gates always commute, and
    non-unitary gates ([Barrier], [Measure]) never commute on shared
    wires ([Barrier] additionally fences {e everything}).

    Construction is still a pairwise backward scan over all earlier
    gates, with on-the-fly transitive reduction, so the edge set is the
    minimal relation whose closure is the full dependency order.  The
    gates already reached while placing gate [j] are marked in one
    stamped [int array] per build ([stamp.(i) = j]).  The decomposed
    circuit of a 6x6-grid IC compile (1,827 gates) builds in 30-50 ms
    on a 2-core x86-64 VM (OCaml 5.1.1, release build).

    The point of the module: any topological order of this DAG denotes
    the same unitary as the original circuit (the relation is sound), so
    schedulers, peephole passes and lower bounds may treat the circuit
    as the DAG.  {!Qaoa_analysis.Dataflow} layers ASAP/ALAP, slack and
    depth bounds on top; the qcheck oracle in the test suite replays
    random linear extensions through the phase-polynomial checker to
    keep the relation honest. *)

type t

type node = { id : int; gate : Qaoa_circuit.Gate.t }

val build : Qaoa_circuit.Circuit.t -> t
(** Build the transitively-reduced commutation DAG. *)

val num_nodes : t -> int
val num_qubits : t -> int

val gate : t -> int -> Qaoa_circuit.Gate.t
(** Gate of a node id (ids are circuit positions). *)

val nodes : t -> node list
(** In circuit order. *)

val predecessors : t -> int -> int list
(** Direct dependencies (smaller ids), in increasing order. *)

val successors : t -> int -> int list

val edges : t -> (int * int) list
(** All [(pred, succ)] pairs of the reduced DAG, lexicographic. *)

val reachable : t -> int -> int -> bool
(** [reachable t i j]: is there a dependency path [i -> ... -> j]?
    [false] whenever [i >= j] (edges only point forward).  Two nodes
    with no path either way can be scheduled in either order. *)

val random_linear_extension : Qaoa_util.Rng.t -> t -> int list
(** A uniformly-chosen-at-each-step topological order (Kahn's algorithm
    with a seeded random ready-node pick): the schedule-validity oracle
    feeds these to {!circuit_of_order} and demands phase-polynomial
    equivalence with the original circuit. *)

val circuit_of_order : t -> int list -> Qaoa_circuit.Circuit.t
(** Flatten a node order back into a circuit.
    @raise Invalid_argument if the order is not a permutation of the
    node ids or violates a dependency edge. *)
