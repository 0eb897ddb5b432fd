(* Tests for the one-call Solver pipeline. *)

module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Problem = Qaoa_core.Problem
module Encodings = Qaoa_core.Encodings
module Solver = Qaoa_core.Solver
module Compile = Qaoa_core.Compile
module Compliance = Qaoa_backend.Compliance
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng

let test_solve_small_maxcut () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  let o = Solver.solve ~shots:4096 device problem in
  Alcotest.(check (option (float 1e-9))) "optimum known" (Some 6.0) o.Solver.optimum;
  (* p=1 on C6 samples the optimum with substantial probability *)
  Alcotest.(check (float 1e-9)) "best sampled cut is optimal" 6.0 o.Solver.best_cost;
  Alcotest.(check bool) "ratio in (0.5, 1]" true
    (o.Solver.approximation_ratio > 0.5 && o.Solver.approximation_ratio <= 1.0);
  Alcotest.(check bool) "compiled compliant" true
    (Compliance.is_compliant device o.Solver.compiled.Compile.circuit)

let test_solve_noisy () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem =
    Problem.of_maxcut (Generators.random_regular (Rng.create 1) ~n:8 ~d:3)
  in
  let ideal = Solver.solve ~shots:2048 device problem in
  let noisy = Solver.solve ~execution:Solver.Noisy ~shots:2048 device problem in
  Alcotest.(check bool) "noise lowers the mean" true
    (noisy.Solver.mean_cost <= ideal.Solver.mean_cost +. 0.2)

let test_solve_mis () =
  let device = Topologies.ibmq_16_melbourne () in
  let g = Generators.cycle 8 in
  let problem = Encodings.max_independent_set g in
  let o = Solver.solve ~shots:4096 device problem in
  (* C8's maximum independent set has 4 vertices *)
  Alcotest.(check (float 1e-9)) "MIS size 4" 4.0 o.Solver.best_cost;
  Alcotest.(check bool) "decoded set independent" true
    (Encodings.is_independent_set g
       (Encodings.decode_selection problem o.Solver.best_bits))

let test_solve_deterministic () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  let a = Solver.solve ~seed:9 device problem in
  let b = Solver.solve ~seed:9 device problem in
  Alcotest.(check int) "same best" a.Solver.best_bits b.Solver.best_bits;
  Alcotest.(check (float 1e-12)) "same mean" a.Solver.mean_cost b.Solver.mean_cost

let test_solve_validation () =
  let device = Topologies.linear 4 in
  Alcotest.check_raises "no quadratic terms"
    (Invalid_argument "Solver.solve: problem has no quadratic terms")
    (fun () ->
      ignore (Solver.solve device (Problem.create ~num_vars:3 [])));
  Alcotest.check_raises "noisy without calibration"
    (Invalid_argument "linear_4: device has no calibration data") (fun () ->
      ignore
        (Solver.solve ~execution:Solver.Noisy device
           (Problem.of_maxcut (Generators.path 3))))

let test_solve_p2_at_least_p1 () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.cycle 4) in
  let p1 = Solver.solve ~shots:4096 ~seed:3 device problem in
  let p2 = Solver.solve ~p:2 ~shots:4096 ~seed:3 device problem in
  Alcotest.(check bool)
    (Printf.sprintf "p2 ratio %.3f >= p1 ratio %.3f - margin"
       p2.Solver.approximation_ratio p1.Solver.approximation_ratio)
    true
    (p2.Solver.approximation_ratio >= p1.Solver.approximation_ratio -. 0.05)

let suite =
  [
    ("solve small maxcut", `Quick, test_solve_small_maxcut);
    ("solve noisy", `Slow, test_solve_noisy);
    ("solve MIS", `Quick, test_solve_mis);
    ("solve deterministic", `Quick, test_solve_deterministic);
    ("solve validation", `Quick, test_solve_validation);
    ("solve p2 >= p1", `Slow, test_solve_p2_at_least_p1);
  ]
