(** One experiment record per figure or ablation: its id, title, column
    names and paper notes, next to the function that computes its rows.
    {!Report.run} prints, exports and reports every record the same
    way, so this metadata is written once. *)

type scale =
  | Smoke  (** minimal instance counts - test-suite duty *)
  | Default  (** reduced counts, minutes of wall clock - bench default *)
  | Full  (** paper-scale instance counts *)

val scale_of_string : string -> scale option
val scale_name : scale -> string

val scale_from_env : unit -> scale
(** Reads [QAOA_BENCH_SCALE] ("smoke" | "default" | "full"); defaults to
    [Default]. *)

type row = string * float list
(** [(label, values)], one value per column.  Ratios below 1.0 mean
    "proposed beats baseline", as in the paper's bar charts. *)

type kind = Figure | Ablation
(** Decides the CSV name: [<id>.csv] for a figure, [ablation_<id>.csv]
    for an ablation. *)

type t = {
  id : string;  (** e.g. ["fig9"], ["peephole"]; unique across kinds *)
  kind : kind;
  title : string;
  columns : string list;  (** one name per value of every row *)
  notes : string list;  (** the paper's reference numbers *)
  run : scale:scale -> journal:Qaoa_journal.Journal.t option -> row list;
      (** Computes the rows without printing.  With a journal every
          underlying trial is supervised and journaled under a key
          prefixed by the experiment (["fig7/ER(p=0.1)/QAIM/i0/s7000"],
          ["ablation/crosstalk/k=3"]), so an interrupted run resumes
          from its last completed trial. *)
}

val make :
  kind ->
  string ->
  title:string ->
  columns:string list ->
  notes:string list ->
  (scale:scale -> journal:Qaoa_journal.Journal.t option -> row list) ->
  t
(** [make kind id ~title ~columns ~notes run] is the record; written
    [... @@ fun ~scale ~journal -> body] it puts the metadata right
    above the code that computes the rows. *)
