(* Classical-baseline context for QAOA: on a batch of MaxCut instances,
   compare the p=1 QAOA approximation ratio (noiseless and under
   melbourne's noise, with and without readout mitigation) against
   uniform random sampling, greedy local search and simulated annealing.

   Run with:  dune exec examples/classical_vs_quantum.exe *)

module Generators = Qaoa_graph.Generators
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Analytic = Qaoa_core.Analytic
module Classical = Qaoa_core.Classical
module Compile = Qaoa_core.Compile
module Arg = Qaoa_core.Arg
module Topologies = Qaoa_hardware.Topologies
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats
module Table = Qaoa_util.Table

let () =
  let device = Topologies.ibmq_16_melbourne () in
  let rng = Rng.create 99 in
  let instances = 6 in
  let acc = Hashtbl.create 8 in
  let record k v =
    Hashtbl.replace acc k (v :: Option.value ~default:[] (Hashtbl.find_opt acc k))
  in
  Printf.printf
    "comparing solution quality on %d random 10-node 3-regular MaxCut instances\n"
    instances;
  for seed = 0 to instances - 1 do
    let g = Generators.random_regular (Rng.create seed) ~n:10 ~d:3 in
    let problem = Problem.of_maxcut g in
    let _, optimum = Problem.brute_force_best problem in
    let ratio c = c /. optimum in

    (* classical baselines *)
    let _, rand = Classical.random_sampling rng ~samples:256 problem in
    let _, ls = Classical.local_search rng problem in
    let _, sa = Classical.simulated_annealing rng problem in
    record "random best-of-256" (ratio rand);
    record "local-search" (ratio ls);
    record "annealing" (ratio sa);

    (* QAOA p=1: expectation ratio (noiseless) and noisy-execution mean *)
    let params, expectation =
      Qaoa_core.Optimizer.optimize_p1 ~grid:32 (Analytic.expectation g)
    in
    record "qaoa p=1 <C>/C*" (expectation /. optimum);
    let compiled =
      Compile.compile ~strategy:(Compile.Vic None) device problem params
    in
    let noisy = Arg.evaluate ~shots:2048 rng device problem params compiled in
    record "qaoa p=1 noisy" noisy.Arg.hardware_ratio;
    let mitigated =
      Arg.evaluate ~shots:2048 ~mitigate_readout:true (Rng.create seed) device
        problem params compiled
    in
    record "qaoa p=1 mitigated" mitigated.Arg.hardware_ratio
  done;
  let t = Table.create [ "method"; "mean approx. ratio" ] in
  List.iter
    (fun key ->
      Table.add_float_row t key [ Stats.mean (Hashtbl.find acc key) ])
    [
      "random best-of-256"; "qaoa p=1 noisy"; "qaoa p=1 mitigated"; "qaoa p=1 <C>/C*";
      "local-search"; "annealing";
    ];
  Table.print t;
  print_endline
    "\n(mind the metrics: the classical rows are best-of-run while the QAOA\n\
     rows are sample means; raising p lifts the mean - which is why\n\
     compiled-circuit quality matters so much)"
