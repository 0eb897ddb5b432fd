(** Reproduction of every table and figure of the paper's evaluation
    (Sec. V) plus the Sec. VI ring-8 comparison.  Each function generates
    the figure's workload, runs the involved strategies through the
    shared backend, prints the measured series next to the paper's
    reference numbers, and returns the measured rows for programmatic use
    (tests, EXPERIMENTS.md generation).

    Row encoding: [(label, values)] with the column meaning documented
    per function.  Ratios below 1.0 mean "proposed beats baseline", as in
    the paper's bar charts ("a lower value is better").

    Every function takes an optional {!Qaoa_journal.Journal.t}: with one,
    the underlying compiles become supervised, journaled trials (see
    {!Runner.run}), so a crashed or interrupted regeneration resumes
    from its last completed trial instead of starting over.  Keys are
    prefixed with the figure id (["fig7/ER(p=0.1)/QAIM/i0/s7000"]). *)

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

val fig7 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 7: QAIM vs GreedyV vs NAIVE on 20-node graphs (ibmq_20_tokyo).
    One row per graph family (ER p = 0.1..0.6 and d-regular d = 3..8);
    columns: [GreedyV/NAIVE depth; QAIM/NAIVE depth; GreedyV/NAIVE gates;
    QAIM/NAIVE gates]. *)

val fig8 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 8: problem-size sweep, 3-regular, n = 12..20, tokyo.  Columns as
    {!fig7}. *)

val fig9 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 9: IP and IC vs QAIM-only on 20-node graphs, tokyo.  Columns:
    [IP/QAIM depth; IC/QAIM depth; IP/QAIM gates; IC/QAIM gates;
    IP/QAIM time; IC/QAIM time]. *)

val fig10 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 10: VIC vs IC success probability on calibrated melbourne,
    n = 13..15.  Columns: [VIC/IC success ratio] - above 1.0 means VIC
    more reliable. *)

val fig11a :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 11(a): summary over 20-node ER + regular instances on tokyo
    (random calibration for VIC).  One row per strategy; columns:
    [depth; gates; time], each normalized by NAIVE. *)

val fig11b :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 11(b): ARG of QAIM / IP / IC / VIC on melbourne, 12-node ER(0.5)
    and 6-regular instances, p=1 parameters found analytically, noisy
    execution on the trajectory simulator.  One row per strategy;
    columns: [mean ARG %]. *)

val fig12 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Fig. 12: packing-limit sweep of IC(+QAIM) on the 36-qubit grid,
    36-node ER(0.5) and 15-regular workloads.  One row per packing
    limit; columns: [mean depth; mean gates; mean time(s)]. *)

val fig_ring8 :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?quiet:bool -> unit -> row list
(** Sec. VI comparison point: IC(+QAIM) on 8-node, 8-edge ER instances
    over an 8-qubit ring.  One row; columns: [mean depth; mean gates;
    mean time(s)].  The paper quotes the temporal planner [46] at 70 s
    compile time with IC 8.51% / 12.99% better depth/gates. *)

val all :
  ?scale:scale ->
  ?journal:Qaoa_journal.Journal.t ->
  unit ->
  (string * row list) list
(** Run every figure in order, printing each; returns [(figure id, rows)]
    for EXPERIMENTS.md-style post-processing. *)
