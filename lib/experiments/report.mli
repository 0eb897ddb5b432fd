(** The one path from experiment records to their readers: the printed
    tables, the CSVs and [report.md] all come from the same
    {!Experiment.t}, so a title, column name or paper note is never
    copied. *)

val run :
  ?journal:Qaoa_journal.Journal.t ->
  ?export:string ->
  scale:Experiment.scale ->
  Experiment.t list ->
  (Experiment.t * Experiment.row list) list
(** For each record in order, compute its rows, then print
    ["=== id: title [scale=s] ==="], its table (a ["workload"] column,
    then the record's columns) and one ["  paper: "] line per note.
    With [export = dir], also write [dir/<id>.csv] ([ablation_<id>.csv]
    for an ablation) as soon as the rows are computed, with header
    [workload,v0,...] (one [v<i>] per column, see
    {!Export.csv_of_rows}), and after the last record [dir/report.md]
    ({!to_markdown}).  [dir] is created (recursively) before the first
    record runs, and every file is written atomically.  [journal] is passed to every
    record.  Returns each record with the rows it printed, in order. *)

val to_markdown :
  scale:Experiment.scale -> (Experiment.t * Experiment.row list) list -> string
(** A provenance header, then per record a ["## id: title [scale=s]"]
    heading (the printed one), its table and one ["> paper: "] line per
    note. *)
