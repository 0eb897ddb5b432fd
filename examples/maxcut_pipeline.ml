(* Full QAOA-MaxCut pipeline on a realistic workload: generate a random
   3-regular graph, find optimal p=1 parameters three ways (analytically,
   by grid+Nelder-Mead on the simulator, and cross-check them), compile
   for ibmq_16_melbourne, execute noisily, and report approximation
   ratios and ARG - the full protocol behind the paper's Fig. 11(b).

   Run with:  dune exec examples/maxcut_pipeline.exe *)

module Generators = Qaoa_graph.Generators
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Analytic = Qaoa_core.Analytic
module Optimizer = Qaoa_core.Optimizer
module Compile = Qaoa_core.Compile
module Arg = Qaoa_core.Arg
module Topologies = Qaoa_hardware.Topologies
module Rng = Qaoa_util.Rng

let () =
  let rng = Rng.create 2020 in
  let graph = Generators.random_regular rng ~n:10 ~d:3 in
  let problem = Problem.of_maxcut graph in
  let _, optimum = Problem.brute_force_best problem in
  Printf.printf "instance: 10-node 3-regular MaxCut, optimum cut = %.0f\n\n" optimum;

  (* Parameter setting route 1: the closed-form p=1 expectation. *)
  let analytic_params, analytic_value =
    Optimizer.optimize_p1 ~grid:48 (Analytic.expectation graph)
  in
  Printf.printf "analytic optimum:  gamma=%.4f beta=%.4f  <C> = %.4f\n"
    analytic_params.Ansatz.gammas.(0) analytic_params.Ansatz.betas.(0)
    analytic_value;

  (* Route 2: grid + Nelder-Mead against the statevector expectation. *)
  let sim_params, sim_value =
    Optimizer.optimize_p1 ~grid:24 (fun ~gamma ~beta ->
        Ansatz.expectation problem (Ansatz.params_p1 ~gamma ~beta))
  in
  Printf.printf "simulator optimum: gamma=%.4f beta=%.4f  <C> = %.4f\n"
    sim_params.Ansatz.gammas.(0) sim_params.Ansatz.betas.(0) sim_value;
  Printf.printf "(the two routes must agree: |diff| = %.2e)\n\n"
    (Float.abs (analytic_value -. sim_value));

  (* Compile for melbourne and evaluate ARG for three strategies. *)
  let device = Topologies.ibmq_16_melbourne () in
  Printf.printf "compiling for %s and executing with trajectory noise...\n"
    device.Qaoa_hardware.Device.name;
  let t = Qaoa_util.Table.create [ "strategy"; "r_ideal"; "r_hw"; "ARG (%)" ] in
  List.iter
    (fun strategy ->
      let r = Compile.compile ~strategy device problem analytic_params in
      let report =
        Arg.evaluate ~shots:4096 (Rng.create 7) device problem analytic_params r
      in
      Qaoa_util.Table.add_float_row t
        (Compile.strategy_name strategy)
        [ report.Arg.ideal_ratio; report.Arg.hardware_ratio; report.Arg.arg_percent ])
    [ Compile.Qaim; Compile.Ic None; Compile.Vic None ];
  Qaoa_util.Table.print t;
  print_endline "\n(lower ARG = execution closer to the noiseless circuit)"
