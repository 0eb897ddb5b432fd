(** Quantum circuits: an ordered gate sequence over [n] qubits.

    The representation is persistent; [append] is O(1) amortized thanks to
    an internally reversed gate list, so building circuits gate-by-gate in
    the compilation passes stays linear. *)

type t

val create : int -> t
(** Empty circuit on [n] qubits.  @raise Invalid_argument if [n < 0]. *)

val of_gates : int -> Gate.t list -> t
(** @raise Invalid_argument if any gate touches a qubit outside
    [0..n-1]. *)

val num_qubits : t -> int

val gates : t -> Gate.t list
(** Gates in program order. *)

val append : t -> Gate.t -> t
(** Add one gate at the end.  @raise Invalid_argument on out-of-range
    qubits. *)

val append_list : t -> Gate.t list -> t

val concat : t -> t -> t
(** [concat a b] runs [a] then [b]; both must have the same qubit count.
    This is the "stitching" primitive of incremental compilation. *)

val length : t -> int
(** Number of gates (barriers included). *)

val map_qubits : (int -> int) -> t -> t
(** Rename all qubit indices (e.g. apply a logical-to-physical mapping).
    The function must stay within range. *)

val with_num_qubits : int -> t -> t
(** Reinterpret on a wider register.  @raise Invalid_argument if an
    existing gate would fall out of range. *)

val filter : (Gate.t -> bool) -> t -> t

val used_qubits : t -> int list
(** Sorted list of qubits touched by at least one gate. *)

val measure_all : t -> t
(** Append a [Measure] on every qubit. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
