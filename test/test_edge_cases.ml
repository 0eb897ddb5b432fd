(* Edge-case and configuration-coverage tests across the libraries:
   untested option paths, degenerate inputs, and failure modes. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Layering = Qaoa_circuit.Layering
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router
module Compliance = Qaoa_backend.Compliance
module Statevector = Qaoa_sim.Statevector
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Qaim = Qaoa_core.Qaim
module Compile = Qaoa_core.Compile
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng

(* --- circuits --- *)

let test_with_num_qubits () =
  let c = Circuit.of_gates 2 [ Gate.Cnot (0, 1) ] in
  let widened = Circuit.with_num_qubits 5 c in
  Alcotest.(check int) "widened" 5 (Circuit.num_qubits widened);
  Alcotest.(check int) "gates kept" 1 (Circuit.length widened);
  Alcotest.check_raises "narrowing below a gate"
    (Invalid_argument "Circuit.with_num_qubits: gate out of range") (fun () ->
      ignore (Circuit.with_num_qubits 1 c))

let test_circuit_filter () =
  let c =
    Circuit.of_gates 2 [ Gate.H 0; Gate.Measure 0; Gate.H 1; Gate.Measure 1 ]
  in
  let unitary = Circuit.filter Gate.is_unitary c in
  Alcotest.(check int) "measures dropped" 2 (Circuit.length unitary)

let test_p0_ansatz () =
  (* zero levels: just the Hadamard wall (+ measures) *)
  let problem = Problem.of_maxcut (Generators.cycle 4) in
  let params = { Ansatz.gammas = [||]; betas = [||] } in
  Alcotest.(check int) "levels 0" 0 (Ansatz.levels params);
  let c = Ansatz.circuit ~measure:false problem params in
  Alcotest.(check int) "h wall only" 4 (Circuit.length c);
  (* expectation is the uniform superposition's m/2 *)
  Alcotest.(check (float 1e-9)) "m/2" 2.0 (Ansatz.expectation problem params)

let test_gate_equality_corner () =
  Alcotest.(check bool) "angle matters" false
    (Gate.equal (Gate.Rz (0, 0.1)) (Gate.Rz (0, 0.2)));
  Alcotest.(check bool) "orientation matters" false
    (Gate.equal (Gate.Cnot (0, 1)) (Gate.Cnot (1, 0)));
  Alcotest.(check bool) "swap orientation matters structurally" false
    (Gate.equal (Gate.Swap (0, 1)) (Gate.Swap (1, 0)))

(* --- router configs --- *)

let test_router_reliability_aware_without_calibration () =
  (* uncalibrated device: the flag silently falls back to hop distances *)
  let device = Topologies.linear 4 in
  let c = Circuit.of_gates 4 [ Gate.Cnot (0, 3) ] in
  let config = { Router.default_config with reliability_aware = true } in
  let r =
    Router.route ~config ~device
      ~initial:(Mapping.trivial ~num_logical:4 ~num_physical:4)
      c
  in
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Router.circuit)

let test_route_empty_circuit () =
  let device = Topologies.linear 3 in
  let r =
    Router.route ~device
      ~initial:(Mapping.trivial ~num_logical:3 ~num_physical:3)
      (Circuit.create 3)
  in
  Alcotest.(check int) "no gates" 0 (Circuit.length r.Router.circuit);
  Alcotest.(check int) "no swaps" 0 r.Router.swap_count

(* --- QAIM config paths --- *)

let test_qaim_order_one () =
  let rng = Rng.create 6 in
  let device = Topologies.ibmq_20_tokyo () in
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  let config = { Qaim.strength_order = 1 } in
  let m = Qaim.initial_mapping ~config rng device problem in
  Alcotest.(check int) "valid" 6 (Mapping.num_logical m)

(* --- compile option paths --- *)

let test_compile_without_measure () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  let options = { Compile.default_options with measure = false } in
  List.iter
    (fun strategy ->
      let r =
        Compile.compile ~options ~strategy device problem
          (Ansatz.params_p1 ~gamma:0.7 ~beta:0.4)
      in
      Alcotest.(check int)
        (Compile.strategy_name strategy ^ " no measures")
        0 r.Compile.metrics.Qaoa_circuit.Metrics.measure_count)
    [ Compile.Naive; Compile.Ip; Compile.Ic None ]

let test_compile_problem_too_large () =
  let device = Topologies.linear 4 in
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  Alcotest.check_raises "too large"
    (Compile.Error (Compile.Too_many_qubits { needed = 6; available = 4 }))
    (fun () ->
      ignore
        (Compile.compile ~strategy:Compile.Naive device problem
           (Ansatz.params_p1 ~gamma:0.7 ~beta:0.4)))

let test_single_edge_problem_all_strategies () =
  (* degenerate 2-node problem flows through every strategy *)
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.path 2) in
  List.iter
    (fun strategy ->
      let r =
        Compile.compile ~strategy device problem
          (Ansatz.params_p1 ~gamma:0.7 ~beta:0.4)
      in
      Alcotest.(check bool)
        (Compile.strategy_name strategy ^ " compliant")
        true
        (Compliance.is_compliant device r.Compile.circuit))
    Compile.all_strategies

(* --- simulator edge cases --- *)

let test_overlap_size_mismatch () =
  let a = Statevector.create 2 and b = Statevector.create 3 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Statevector.overlap: size mismatch") (fun () ->
      ignore (Statevector.overlap_probability a b))

let test_zero_qubit_state () =
  let sv = Statevector.create 0 in
  Alcotest.(check (float 1e-12)) "trivial state" 1.0 (Statevector.probability sv 0);
  Alcotest.(check (float 1e-12)) "norm" 1.0 (Statevector.norm sv)

let test_barrier_only_circuit () =
  let c = Circuit.of_gates 2 [ Gate.Barrier; Gate.Barrier ] in
  Alcotest.(check int) "depth 0" 0 (Layering.depth c);
  let sv = Statevector.of_circuit c in
  Alcotest.(check (float 1e-12)) "identity" 1.0 (Statevector.probability sv 0)

let suite =
  [
    ("with_num_qubits", `Quick, test_with_num_qubits);
    ("circuit filter", `Quick, test_circuit_filter);
    ("p=0 ansatz", `Quick, test_p0_ansatz);
    ("gate equality corners", `Quick, test_gate_equality_corner);
    ("router reliability fallback", `Quick, test_router_reliability_aware_without_calibration);
    ("route empty circuit", `Quick, test_route_empty_circuit);
    ("qaim order one", `Quick, test_qaim_order_one);
    ("compile without measure", `Quick, test_compile_without_measure);
    ("compile problem too large", `Quick, test_compile_problem_too_large);
    ("two-qubit problem all strategies", `Quick, test_single_edge_problem_all_strategies);
    ("overlap size mismatch", `Quick, test_overlap_size_mismatch);
    ("zero-qubit state", `Quick, test_zero_qubit_state);
    ("barrier-only circuit", `Quick, test_barrier_only_circuit);
  ]
