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

    The edge set is the minimal relation whose closure is the full
    dependency order (transitive reduction on the fly).  Gate [j]
    visits, in decreasing order and each once, only the earlier gates
    on its own wires back to the last [Barrier], then that [Barrier]; a
    [Barrier] visits every gate since the previous one.  A skipped gate
    either commutes with [j] or is already an ancestor of that
    [Barrier], so the edges are those of a scan over every earlier
    gate.  Each gate keeps the set of its ancestors as a bitset
    ([Sys.int_size] gates per [int] word): a candidate already among
    the ancestors of [j]'s chosen predecessors is skipped, and a new
    edge ORs the candidate's set in.  The sets take sum over j of
    ceil(j/63) words: about 220 KB at 1,827 gates, 25 MB at 20,000.
    On a 2-core x86-64 VM (OCaml 5.1.1, release build) the decomposed
    circuit of a tokyo IC compile (498 gates) builds in 0.5-0.8 ms and
    that of a 6x6-grid IC compile (1,827 gates) in 3.4-6.2 ms,
    allocating 0.2 MB.

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
    with no path either way can be scheduled in either order.  One bit
    test in [j]'s ancestor set. *)

val random_linear_extension : Qaoa_util.Rng.t -> t -> int list
(** A uniformly-chosen-at-each-step topological order (Kahn's algorithm
    with a seeded random ready-node pick): the schedule-validity oracle
    feeds these to {!circuit_of_order} and demands phase-polynomial
    equivalence with the original circuit. *)

val circuit_of_order : t -> int list -> Qaoa_circuit.Circuit.t
(** Flatten a node order back into a circuit.
    @raise Invalid_argument if the order is not a permutation of the
    node ids or violates a dependency edge. *)
