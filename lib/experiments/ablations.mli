(** Ablation studies for the design choices behind the reproduction and
    the paper's Sec. VI directions.  Not part of the paper's figures;
    each quantifies one knob with everything else held fixed.  Their
    instance counts scale by a quarter at [Default], where
    {!Figures.count} takes a sixth. *)

val all : Experiment.t list
(** The ablations in bench order, ids [router-lookahead],
    [qaim-strength-order], [peephole], [reverse-traversal],
    [mapper-shootout], [iterative], [qaoa-levels], [swap-network],
    [heavy-hex], [crosstalk] and [graph-families].  Runner-backed
    studies journal one trial per (strategy, instance), the others one
    trial per row, all under ["ablation/<id>/..."]. *)
