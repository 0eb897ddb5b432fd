(** Compiled-circuit quality metrics (paper Sec. V.A).

    All metrics are computed on the basis-decomposed circuit so that
    [depth] is the critical-path length in native time steps and
    [gate_count] is the "total number of native gate operations". *)

type t = {
  depth : int;  (** ASAP critical path, measurements included *)
  gate_count : int;  (** native unitary gates (measures/barriers excluded) *)
  two_qubit_count : int;  (** CNOTs after decomposition *)
  measure_count : int;
}

val of_circuit : Circuit.t -> t
(** The metrics of {!Decompose.circuit}[ c], in one walk over [c]: each
    gate's {!Decompose.gate} lowering is counted and placed by
    {!Layering.place}'s ASAP rule as it comes, with no decomposed
    circuit built.  Idempotent on already-decomposed circuits. *)

val counts_by_name : Circuit.t -> (string * int) list
(** Histogram of gate mnemonics after decomposition, sorted by name. *)

val pp : Format.formatter -> t -> unit
