module Device = Qaoa_hardware.Device
module Statevector = Qaoa_sim.Statevector
module Sampler = Qaoa_sim.Sampler
module Noise = Qaoa_sim.Noise
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats

type execution = Ideal | Noisy

type outcome = {
  best_bits : int;
  best_cost : float;
  approximation_ratio : float;
  mean_cost : float;
  optimum : float option;
  params : Ansatz.params;
  compiled : Compile.result;
}

let choose_params rng ~p problem =
  if p = 1 && Analytic.applies problem then
    fst
      (Optimizer.optimize_p1 ~grid:32
         (Analytic.expectation (Problem.interaction_graph problem)))
  else if p = 1 then
    fst
      (Optimizer.optimize_p1 ~grid:16 (fun ~gamma ~beta ->
           Ansatz.expectation problem (Ansatz.params_p1 ~gamma ~beta)))
  else
    fst (Optimizer.optimize_params rng ~p (fun prms -> Ansatz.expectation problem prms))

let solve ?(strategy = Compile.Ic None) ?(p = 1) ?(shots = 2048)
    ?(execution = Ideal) ?(seed = 42) device problem =
  if Problem.cphase_pairs problem = [] then
    invalid_arg "Solver.solve: problem has no quadratic terms";
  if p < 1 then invalid_arg "Solver.solve: p must be >= 1";
  if shots < 1 then invalid_arg "Solver.solve: shots must be >= 1";
  let rng = Rng.create seed in
  (* the simulator backs parameter optimization; cap accordingly *)
  if problem.Problem.num_vars > 24 then
    invalid_arg "Solver.solve: problems beyond 24 variables need external parameters";
  let params = choose_params rng ~p problem in
  let options = { Compile.default_options with seed } in
  let compiled = Compile.compile ~options ~strategy device problem params in
  let logical_samples =
    match execution with
    | Ideal ->
      let sv = Ansatz.state problem params in
      Sampler.sample_many rng sv ~shots
    | Noisy ->
      let noise = Noise.create (Device.calibration_exn device) in
      Array.map
        (Compile.logical_outcome compiled)
        (Noise.sample_noisy rng noise compiled.Compile.circuit ~shots
           ~trajectories:(max 1 (shots / 32)))
  in
  let costs = Array.map (Problem.cost problem) logical_samples in
  let best_index = ref 0 in
  Array.iteri (fun i c -> if c > costs.(!best_index) then best_index := i) costs;
  let best_bits = logical_samples.(!best_index) in
  let best_cost = costs.(!best_index) in
  let mean_cost = Stats.mean_array costs in
  let optimum =
    if problem.Problem.num_vars <= 24 then
      Some (snd (Problem.brute_force_best problem))
    else None
  in
  let approximation_ratio =
    match optimum with
    | Some o when o <> 0.0 -> mean_cost /. o
    | _ -> mean_cost /. Float.max best_cost 1e-12
  in
  {
    best_bits;
    best_cost;
    approximation_ratio;
    mean_cost;
    optimum;
    params;
    compiled;
  }
