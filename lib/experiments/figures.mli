(** Reproduction of every table and figure of the paper's evaluation
    (Sec. V) plus the Sec. VI ring-8 comparison, one
    {!Experiment.t} each: Figs. 7, 8, 9, 10, 11(a), 11(b) and 12, then
    [ring8].  Each record generates its figure's workload and runs the
    strategies involved through the shared backend; its title, columns
    and the paper's reference numbers sit next to that code, and
    {!Report.run} prints, exports and reports them. *)

val count : paper:int -> Experiment.scale -> int
(** Instances per bar or point: the paper's count at [Full], a sixth of
    it (at least 2) at [Default], 2 at [Smoke]. *)

val all : Experiment.t list
(** The figures in paper order, ids [fig7], [fig8], [fig9], [fig10],
    [fig11a], [fig11b], [fig12] and [ring8]. *)
