(** Quantum gate intermediate representation.

    Conventions (verified against the statevector simulator in the test
    suite):
    - [RX theta] = exp(-i theta X / 2), [RY]/[RZ] analogous;
    - [Cphase (c, t, theta)] is the ZZ-interaction
      exp(-i theta/2 Z(x)Z) = diag(e^{-i th/2}, e^{i th/2}, e^{i th/2},
      e^{-i th/2}) - the commuting two-qubit gate the paper calls CPHASE,
      decomposable as CNOT(c,t); RZ(t, theta); CNOT(c,t);
    - [Phase theta] = diag(1, e^{i theta}) (IBM u1);
    - [Barrier] is a scheduling fence across all qubits, not a gate. *)

type t =
  | H of int
  | X of int
  | Y of int
  | Z of int
  | Rx of int * float
  | Ry of int * float
  | Rz of int * float
  | Phase of int * float
  | Cnot of int * int  (** control, target *)
  | Cphase of int * int * float  (** control, target, angle *)
  | Swap of int * int
  | Barrier
  | Measure of int

val qubits : t -> int list
(** Qubits the gate acts on ([[]] for [Barrier]). *)

val is_two_qubit : t -> bool
(** True for [Cnot], [Cphase], [Swap]. *)

val is_unitary : t -> bool
(** False for [Barrier] and [Measure]. *)

val shares_qubit : t -> t -> bool
(** Do the two gates act on a common qubit? *)

val is_diagonal : t -> bool
(** Z-basis diagonal: [Z], [Rz], [Phase], [Cphase]. *)

val commutes : t -> t -> bool
(** Sound (not complete) commutation relation - the paper notes (Sec. I)
    that exploiting gate reordering requires the compiler to "check for
    the commutative gates in the given circuit".  Two gates may be
    reordered iff they act on disjoint qubits {i or} they commute
    algebraically.  The relation recognised here:

    - diagonal gates (Z, RZ, U1, CPHASE) pairwise commute - the property
      behind every QAOA cost layer;
    - equal-axis rotations on the same qubit commute (RX-RX, ...);
    - a CNOT commutes with diagonal gates on its control, and with
      X/RX on its target;
    - non-unitary gates ([Barrier], [Measure]) and everything else on
      overlapping qubits are ordered conservatively.

    It depends only on gate shape (constructor and qubits), never on
    rotation angles. *)

val map_qubits : (int -> int) -> t -> t
(** Rename qubit indices. *)

val name : t -> string
(** Lower-case mnemonic ("h", "cx", "cphase", ...). *)

val equal : t -> t -> bool
(** Structural equality with exact float comparison on angles. *)

val pp : Format.formatter -> t -> unit
