(** Plain-text table rendering for the benchmark harness.

    Produces aligned, pipe-separated tables so that the per-figure series the
    harness prints read like the rows of the paper's tables. *)

type t
(** A table under construction. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers.  The
    first column renders left-aligned, the rest right-aligned. *)

val add_row : t -> string list -> unit
(** Append a row.  Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label values] appends a row whose first cell is
    [label] and whose remaining cells render [values] to three decimal
    places ({!float_cell}). *)

val render : t -> string
(** Render the table with column-aligned cells and a header rule. *)

val print : t -> unit
(** [render] to stdout, followed by a newline. *)

val float_cell : ?decimals:int -> float -> string
(** Render a float with fixed decimals; NaN renders as ["-"]. *)
