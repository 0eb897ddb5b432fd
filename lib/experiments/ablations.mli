(** Ablation studies for the design choices behind the reproduction and
    the paper's Sec. VI directions.  Not part of the paper's figures;
    each quantifies one knob with everything else held fixed.  Row
    encoding matches {!Figures.row}. *)

type row = string * float list

val router_lookahead : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Sweep the router's lookahead weight (0, 0.25, 0.5, 1.0) for
    IC(+QAIM) on 20-node ER(0.5)/tokyo.  Columns: [mean depth;
    mean swaps]. *)

val qaim_strength_order : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Connectivity-strength neighbor order 1..3 (the paper suggests
    higher orders for larger machines) on the 6x6 grid, 28-node
    3-regular workload.  Columns: [QAIM/NAIVE depth; QAIM/NAIVE gates]. *)

val peephole : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Post-routing CNOT-cancellation gains per strategy on 20-node
    ER(0.5)/tokyo.  Columns: [gates without; gates with; reduction %]. *)

val reverse_traversal : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Reverse-traversal refinement iterations 0..4 over a NAIVE initial
    mapping (melbourne, 10-node 3-regular).  Columns: [mean swaps of a
    fresh route from the refined mapping]. *)

val mapper_shootout : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** All initial-mapping policies (NAIVE, GreedyV, GreedyE, QAIM, VQA)
    under the same random-order compilation on calibrated melbourne.
    Columns: [mean depth; mean gates; mean success probability]. *)

val iterative_recompilation : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Single-shot IC vs iterative recompilation (depth objective), the
    Sec. VII trade-off.  Columns: [mean depth; mean compile time (s)]. *)

val qaoa_levels : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** IC-compiled depth/gates scaling with p = 1..3 (12-node 3-regular,
    melbourne).  Columns: [mean depth; mean gates]. *)

val swap_network_crossover : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** IC(+QAIM) vs the odd-even SWAP network on the 6x6 grid across edge
    densities p in {0.2, 0.4, 0.6, 0.8} (24-node ER): the structured
    network should win on dense graphs and lose on sparse ones - the
    regime boundary for choosing between the paper's heuristics and
    dense-layer networks.  Columns: [IC depth; network depth; IC swaps;
    network swaps]. *)

val graph_families : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** QAIM and IC benefit across structurally different 20-node workload
    families (ER, 3-regular, scale-free BA, small-world WS) on tokyo -
    hub-dominated and lattice-like graphs stress the heaviest-first
    placement differently than the paper's two families.  Columns:
    [QAIM/NAIVE depth; IC/NAIVE depth; QAIM/NAIVE gates; IC/NAIVE
    gates]. *)

val heavy_hex_generalization : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** The paper's methodologies on a modern sparse device: NAIVE / QAIM /
    IP / IC depth and gate-count ratios on the 27-qubit heavy-hex
    lattice (20-node 3-regular workload).  Columns: [depth/NAIVE;
    gates/NAIVE]. *)

val crosstalk : ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Depth overhead of sequentializing parallel operations on the k worst
    couplings, k in {0, 1, 3, 5} (Sec. VI, following Murali et al.).
    Columns: [mean depth; mean conflicts]. *)

val all :
  ?scale:Figures.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  unit ->
  (string * row list) list
(** Run every ablation in order, printing each; returns
    [(ablation id, rows)].  [journal] makes every underlying study
    resumable: Runner-backed studies journal per-(strategy, instance)
    trials, the manual sweeps journal one trial per output row (keys
    under ["ablation/<id>/..."]). *)
