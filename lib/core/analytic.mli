(** Closed-form p=1 QAOA-MaxCut expectation.

    For unweighted MaxCut at p = 1 the per-edge cut expectation has the
    closed form of Wang, Hadfield, Jiang and Rieffel (PRA 97, 022304,
    2018), depending only on the endpoint degrees and the number of
    triangles through the edge:

      <C_uv> = 1/2
             + 1/4 sin(4 beta) sin(gamma) (cos^du gamma + cos^dv gamma)
             - 1/4 sin^2(2 beta) cos^(du+dv-2t) gamma (1 - cos^t (2 gamma))

    with du = deg(u) - 1, dv = deg(v) - 1, t = |common neighbors|.

    The paper (Sec. V.A) proposes finding optimal circuit parameters
    analytically [45] instead of running the hybrid loop on hardware;
    this module provides that route, cross-validated against the
    statevector simulator in the test suite. *)

val edge_expectation :
  Qaoa_graph.Graph.t -> edge:int * int -> gamma:float -> beta:float -> float
(** <C_uv> for one edge.  @raise Invalid_argument if the pair is not an
    edge of the graph. *)

val expectation : Qaoa_graph.Graph.t -> gamma:float -> beta:float -> float
(** Sum over all edges: the exact p=1 expectation of the cut size. *)

val applies : Problem.t -> bool
(** Whether a problem is unweighted MaxCut (the {!Problem.of_maxcut}
    encoding with unit weights), the regime where {!expectation} of its
    interaction graph is its p=1 expectation.  The p=1 parameter search
    on the closed form is [Optimizer.optimize_p1 ~grid (expectation g)]. *)
