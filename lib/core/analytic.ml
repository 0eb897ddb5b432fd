module Graph = Qaoa_graph.Graph

let edge_expectation g ~edge:(u, v) ~gamma ~beta =
  if not (Graph.has_edge g u v) then
    invalid_arg "Analytic.edge_expectation: not an edge";
  let du = float_of_int (Graph.degree g u - 1) in
  let dv = float_of_int (Graph.degree g v - 1) in
  let t = float_of_int (List.length (Graph.common_neighbors g u v)) in
  let cg = cos gamma in
  0.5
  +. (0.25 *. sin (4.0 *. beta) *. sin gamma *. ((cg ** du) +. (cg ** dv)))
  -. (0.25
     *. (sin (2.0 *. beta) ** 2.0)
     *. (cg ** (du +. dv -. (2.0 *. t)))
     *. (1.0 -. (cos (2.0 *. gamma) ** t)))

let expectation g ~gamma ~beta =
  Graph.fold_edges
    (fun u v acc -> acc +. edge_expectation g ~edge:(u, v) ~gamma ~beta)
    g 0.0

(* [Problem.of_maxcut] with unit weights: every quadratic coefficient is
   -1/2 and there are no linear terms. *)
let applies problem =
  problem.Problem.linear = []
  && List.for_all
       (fun (_, _, c) -> Float.abs (c +. 0.5) < 1e-12)
       problem.Problem.quadratic
