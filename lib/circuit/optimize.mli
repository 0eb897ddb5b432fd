(** Peephole circuit optimization: cancellation of self-inverse gate
    pairs and merging of rotations, with merge partners found through
    any {e commuting} intervening gates.

    A gate looks backward for its partner, scanning through every gate
    that commutes with it under {!Gate.commutes} (disjoint qubits,
    diagonal pairs, equal-axis rotations on a shared qubit, CNOT
    control/target rules) and stopping at the first non-commuting gate
    or [Barrier].  Rules applied to a fixpoint:

    - self-inverse pairs cancel: H-H, X-X, Y-Y, Z-Z, CNOT-CNOT (same
      orientation), SWAP-SWAP;
    - rotations about the same axis merge: RX+RX, RY+RY, RZ+RZ, U1+U1,
      CPHASE+CPHASE (either qubit order - the gate is symmetric);
    - rotations whose angle is 0 (mod 2 pi) are dropped (a 2 pi rotation
      is a global phase).

    The commuting look-through reaches pairs plain adjacency cannot:
    [cnot(0,1); rz(0); cnot(0,1)] collapses to [rz(0)] (the RZ commutes
    through the CNOT's control), and [cphase(a,b); rz(a); cphase(a,b)]
    merges as before.  Acting at a distance is sound because the
    commutation relation depends only on gate shape (constructor and
    qubits), never on rotation angles, so a merged rotation commutes
    with exactly the gates its operands did.

    All rewrites preserve the circuit semantics up to global phase
    (property-tested against both the statevector simulator and the
    phase-polynomial oracle).  The pass pays off most after routing and
    decomposition, where SWAP and CPHASE lowerings place cancelling
    CNOTs back to back. *)

val circuit : Circuit.t -> Circuit.t
(** Optimize to a fixpoint.  Never increases the gate count. *)

val redundancies : ?through_commuting:bool -> Circuit.t -> (int * int) list
(** First-order redundancy witnesses without rewriting: pairs [(i, j)]
    with [i < j] where gate [j] would cancel against or merge into gate
    [i] under the pass's look-through notion.  Empty on a fixpoint of
    {!circuit}.  [~through_commuting:false] (default [true]) restricts
    the look-through to the historical notion - disjoint qubits plus
    diagonal-through-diagonal - which the lint engine uses to separate
    plainly-adjacent pairs (QL005) from pairs reachable only through
    commuting neighbours (QL012). *)

type stats = { gates_before : int; gates_after : int; passes : int }

val with_stats : Circuit.t -> Circuit.t * stats
