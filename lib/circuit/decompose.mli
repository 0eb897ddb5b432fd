(** Decomposition into the hardware basis.

    IBM-style devices natively support one-qubit rotations plus CNOT
    (Sec. II "Basis Gates").  Multi-qubit non-native gates are lowered:
    - CPHASE(c, t, theta)  ->  CNOT(c,t); RZ(t, theta); CNOT(c,t)
      (Fig. 1(d); the RZ is implemented virtually on IBM hardware, hence
      CPHASE success rate = CNOT success rate squared, Sec. IV.D);
    - SWAP(a, b)  ->  CNOT(a,b); CNOT(b,a); CNOT(a,b).

    One-qubit gates are already native and pass through unchanged. *)

val gate : Gate.t -> Gate.t list
(** Basis gates realizing one IR gate. *)

val circuit : Circuit.t -> Circuit.t
(** Lower every gate of the circuit. *)

val is_basis : Gate.t -> bool
(** True if the gate is native ([Cphase] and [Swap] are not). *)
