(* Tests for the ASCII circuit renderer and the parameter landscape
   module. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Render = Qaoa_circuit.Render
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Analytic = Qaoa_core.Analytic
module Landscape = Qaoa_core.Landscape
module Generators = Qaoa_graph.Generators

(* --- Render --- *)

let test_render_bell () =
  let c =
    Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  let s = Render.to_string c in
  Alcotest.(check string) "golden bell"
    "q0: -H-o-M-\nq1: ---X-M-\n" s

let test_render_gate_symbols () =
  let c =
    Circuit.of_gates 2
      [ Gate.Cphase (0, 1, 0.5); Gate.Swap (0, 1); Gate.Rz (0, 0.1) ]
  in
  let s = Render.to_string c in
  Alcotest.(check string) "golden symbols"
    "q0: -#-x-RZ-\nq1: -#-x----\n" s

let test_render_empty () =
  let s = Render.to_string (Circuit.create 2) in
  Alcotest.(check string) "empty" "q0: -\nq1: -\n" s

(* --- Landscape --- *)

let test_landscape_matches_optimize () =
  let g = Generators.cycle 6 in
  let problem = Problem.of_maxcut g in
  let t = Landscape.grid ~gamma_points:32 ~beta_points:32 problem in
  let (_, _), grid_best = Landscape.best t in
  let _, opt = Analytic.optimize ~grid:32 g in
  Alcotest.(check bool)
    (Printf.sprintf "grid best %.3f within 2%% of optimum %.3f" grid_best opt)
    true
    (grid_best > opt *. 0.98)

let test_landscape_zero_row () =
  (* beta = 0 leaves the uniform superposition: every gamma gives m/2 *)
  let problem = Problem.of_maxcut (Generators.cycle 4) in
  let t = Landscape.grid ~gamma_points:8 ~beta_points:4 problem in
  Array.iteri
    (fun i row ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "beta=0 at gamma_%d" i)
        2.0 row.(0))
    t.values

let test_landscape_weighted_uses_simulator () =
  (* weighted problems can't use the closed form; values must still match
     the simulator *)
  let problem =
    Problem.create ~num_vars:3 [ (0, 1, -1.0); (1, 2, -0.25) ]
  in
  let t = Landscape.grid ~gamma_points:4 ~beta_points:4 problem in
  let direct =
    Ansatz.expectation problem
      (Ansatz.params_p1 ~gamma:t.Landscape.gammas.(1) ~beta:t.Landscape.betas.(2))
  in
  Alcotest.(check (float 1e-9)) "simulator value" direct t.Landscape.values.(1).(2)

let test_landscape_ascii_shape () =
  let problem = Problem.of_maxcut (Generators.cycle 4) in
  let t = Landscape.grid ~gamma_points:10 ~beta_points:6 problem in
  let art = Landscape.ascii t in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' art) in
  Alcotest.(check int) "one row per beta" 6 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check int) "one char per gamma" 10 (String.length l))
    lines

let test_landscape_csv () =
  let problem = Problem.of_maxcut (Generators.cycle 4) in
  let t = Landscape.grid ~gamma_points:2 ~beta_points:2 problem in
  let csv = Landscape.to_csv t in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 4 points" 5 (List.length lines);
  Alcotest.(check string) "header" "gamma,beta,expectation" (List.hd lines)

let suite =
  [
    ("render bell (golden)", `Quick, test_render_bell);
    ("render symbols (golden)", `Quick, test_render_gate_symbols);
    ("render empty", `Quick, test_render_empty);
    ("landscape matches optimize", `Quick, test_landscape_matches_optimize);
    ("landscape beta=0 row", `Quick, test_landscape_zero_row);
    ("landscape weighted simulator path", `Quick, test_landscape_weighted_uses_simulator);
    ("landscape ascii shape", `Quick, test_landscape_ascii_shape);
    ("landscape csv", `Quick, test_landscape_csv);
  ]
