(** CSV export of experiment rows, for external plotting.

    RFC-4180-style quoting: fields containing commas, quotes or newlines
    are double-quoted with embedded quotes doubled. *)

val csv_of_rows : columns:string list -> Experiment.row list -> string
(** Header line ["workload", columns...] then one line per row.  Row
    value lists shorter than [columns] are padded with empty fields;
    longer ones raise [Invalid_argument]. *)

val escape_field : string -> string
(** The quoting rule applied to every field. *)

val write_file : path:string -> columns:string list -> Experiment.row list -> unit
(** [csv_of_rows] to a file, atomically
    ({!Qaoa_journal.Atomic_write.write}): readers and crashes see either
    the previous complete file or the new one, never a torn CSV. *)
