(* Tests for the scale-free/small-world generators and the error-budget
   analyzer. *)

module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Error_budget = Qaoa_core.Error_budget
module Success = Qaoa_hardware.Success
module Topologies = Qaoa_hardware.Topologies
module Device = Qaoa_hardware.Device

(* --- generators --- *)

let test_barabasi_albert_shape () =
  let rng = Rng.create 1 in
  let g = Generators.barabasi_albert rng ~n:30 ~m:2 in
  Alcotest.(check int) "vertices" 30 (Graph.num_vertices g);
  (* clique on 3 + 27 * 2 attachments (dedup can only reduce) *)
  Alcotest.(check bool) "edge count" true
    (Graph.num_edges g <= 3 + (27 * 2) && Graph.num_edges g >= 27 * 2);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  List.iter
    (fun v -> Alcotest.(check bool) "min degree" true (Graph.degree g v >= 2))
    (Graph.vertices g)

let test_barabasi_albert_hubs () =
  (* scale-free graphs develop hubs: max degree far above the minimum *)
  let rng = Rng.create 2 in
  let g = Generators.barabasi_albert rng ~n:60 ~m:2 in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d > 3x min attachment" (Graph.max_degree g))
    true
    (Graph.max_degree g >= 6)

let test_barabasi_albert_validation () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "m < 1"
    (Invalid_argument "Generators.barabasi_albert: m < 1") (fun () ->
      ignore (Generators.barabasi_albert rng ~n:5 ~m:0));
  Alcotest.check_raises "n <= m"
    (Invalid_argument "Generators.barabasi_albert: n <= m") (fun () ->
      ignore (Generators.barabasi_albert rng ~n:3 ~m:3))

let test_watts_strogatz_shape () =
  let rng = Rng.create 4 in
  (* beta = 0: exact ring lattice, every degree = k *)
  let lattice = Generators.watts_strogatz rng ~n:20 ~k:4 ~beta:0.0 in
  List.iter
    (fun v -> Alcotest.(check int) "lattice degree" 4 (Graph.degree lattice v))
    (Graph.vertices lattice);
  Alcotest.(check int) "lattice edges" 40 (Graph.num_edges lattice);
  (* beta > 0 keeps the edge count (rewires, does not add) *)
  let rewired = Generators.watts_strogatz rng ~n:20 ~k:4 ~beta:0.5 in
  Alcotest.(check bool) "edges preserved-ish" true
    (Graph.num_edges rewired <= 40 && Graph.num_edges rewired >= 36)

let test_watts_strogatz_validation () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Generators.watts_strogatz: k must be even") (fun () ->
      ignore (Generators.watts_strogatz rng ~n:10 ~k:3 ~beta:0.1));
  Alcotest.check_raises "k too large"
    (Invalid_argument "Generators.watts_strogatz: need 2 <= k < n - 1")
    (fun () -> ignore (Generators.watts_strogatz rng ~n:5 ~k:4 ~beta:0.1))

(* --- error budget --- *)

let test_error_budget_matches_success () =
  let device = Topologies.ibmq_16_melbourne () in
  let cal = Device.calibration_exn device in
  let problem =
    Problem.of_maxcut (Generators.random_regular (Rng.create 10) ~n:8 ~d:3)
  in
  let r =
    Compile.compile ~strategy:(Compile.Ic None) device problem
      (Ansatz.params_p1 ~gamma:0.7 ~beta:0.4)
  in
  let budget = Error_budget.analyze cal r.Compile.circuit in
  Alcotest.(check (float 1e-9)) "agrees with Success"
    (Success.of_circuit cal r.Compile.circuit)
    budget.Error_budget.success_probability;
  (* kind decomposition sums to the total *)
  let kind_sum =
    List.fold_left
      (fun acc e -> acc +. e.Error_budget.log_loss)
      0.0 budget.Error_budget.by_kind
  in
  Alcotest.(check (float 1e-9)) "kinds sum" budget.Error_budget.total_log_loss kind_sum;
  (* coupling entries cover exactly the CNOT losses *)
  let coupling_sum =
    List.fold_left
      (fun acc e -> acc +. e.Error_budget.log_loss)
      0.0 budget.Error_budget.by_coupling
  in
  let cnot_kinds =
    List.filter
      (fun e -> e.Error_budget.label <> "1q")
      budget.Error_budget.by_kind
  in
  let cnot_sum =
    List.fold_left (fun acc e -> acc +. e.Error_budget.log_loss) 0.0 cnot_kinds
  in
  Alcotest.(check (float 1e-9)) "couplings = cnot losses" cnot_sum coupling_sum

let test_error_budget_worst_first () =
  let cal =
    Qaoa_hardware.Calibration.create ~single_qubit_error:0.0
      [ (0, 1, 0.2); (1, 2, 0.01) ]
  in
  let c =
    Qaoa_circuit.Circuit.of_gates 3
      [ Qaoa_circuit.Gate.Cnot (0, 1); Qaoa_circuit.Gate.Cnot (1, 2) ]
  in
  let budget = Error_budget.analyze cal c in
  (match Error_budget.worst_couplings ~top:1 budget with
  | [ e ] -> Alcotest.(check string) "worst is (0,1)" "(0,1)" e.Error_budget.label
  | _ -> Alcotest.fail "expected one entry");
  Alcotest.(check int) "two couplings" 2
    (List.length budget.Error_budget.by_coupling)

let suite =
  [
    ("barabasi-albert shape", `Quick, test_barabasi_albert_shape);
    ("barabasi-albert hubs", `Quick, test_barabasi_albert_hubs);
    ("barabasi-albert validation", `Quick, test_barabasi_albert_validation);
    ("watts-strogatz shape", `Quick, test_watts_strogatz_shape);
    ("watts-strogatz validation", `Quick, test_watts_strogatz_validation);
    ("error budget matches success", `Quick, test_error_budget_matches_success);
    ("error budget worst first", `Quick, test_error_budget_worst_first);
  ]
