(* Tests for the problem encoding, the QAOA ansatz (including the
   commutativity property every methodology relies on), the closed-form
   p=1 expectation and the classical optimizer. *)

module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Analytic = Qaoa_core.Analytic
module Optimizer = Qaoa_core.Optimizer
module Statevector = Qaoa_sim.Statevector
module Rng = Qaoa_util.Rng

let triangle () = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

(* --- Problem --- *)

let test_maxcut_cost () =
  let p = Problem.of_maxcut (triangle ()) in
  (* all-equal assignments cut nothing; any split of a triangle cuts 2 *)
  Alcotest.(check (float 1e-9)) "cut(000)" 0.0 (Problem.cost p 0b000);
  Alcotest.(check (float 1e-9)) "cut(111)" 0.0 (Problem.cost p 0b111);
  Alcotest.(check (float 1e-9)) "cut(001)" 2.0 (Problem.cost p 0b001);
  Alcotest.(check (float 1e-9)) "cut(011)" 2.0 (Problem.cost p 0b011)

let test_maxcut_weighted () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  let p = Problem.of_maxcut ~weights:(fun _ -> 3.0) g in
  Alcotest.(check (float 1e-9)) "weighted cut" 3.0 (Problem.cost p 0b01);
  Alcotest.(check (float 1e-9)) "uncut" 0.0 (Problem.cost p 0b00)

let test_brute_force () =
  let p = Problem.of_maxcut (triangle ()) in
  let _, best = Problem.brute_force_best p in
  Alcotest.(check (float 1e-9)) "triangle maxcut 2" 2.0 best;
  let p4 = Problem.of_maxcut (Generators.complete 4) in
  let _, best4 = Problem.brute_force_best p4 in
  Alcotest.(check (float 1e-9)) "K4 maxcut 4" 4.0 best4;
  let ring = Problem.of_maxcut (Generators.cycle 6) in
  let _, best6 = Problem.brute_force_best ring in
  Alcotest.(check (float 1e-9)) "C6 maxcut 6" 6.0 best6

let test_problem_normalization () =
  let p =
    Problem.create ~num_vars:3 [ (1, 0, 1.0); (0, 1, 2.0); (1, 2, 0.0) ]
  in
  Alcotest.(check (list (pair int int))) "merged and ordered" [ (0, 1) ]
    (Problem.cphase_pairs p);
  (match p.Problem.quadratic with
  | [ (0, 1, c) ] -> Alcotest.(check (float 1e-9)) "summed coeff" 3.0 c
  | _ -> Alcotest.fail "expected single merged term");
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Problem.create: diagonal quadratic term") (fun () ->
      ignore (Problem.create ~num_vars:2 [ (0, 0, 1.0) ]))

let test_linear_terms () =
  let p = Problem.create ~num_vars:2 ~linear:[ (0, 1.5) ] ~constant:2.0 [] in
  (* s_0 = +1 for bit 0 = 0 *)
  Alcotest.(check (float 1e-9)) "bit clear" 3.5 (Problem.cost p 0b00);
  Alcotest.(check (float 1e-9)) "bit set" 0.5 (Problem.cost p 0b01)

let test_ops_per_qubit () =
  let p = Problem.of_maxcut (Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (1, 2) ]) in
  Alcotest.(check (array int)) "profile" [| 3; 2; 2; 1; 0 |] (Problem.ops_per_qubit p);
  Alcotest.(check int) "MOQ" 3 (Problem.max_ops_per_qubit p)

(* --- Ansatz --- *)

let test_ansatz_structure () =
  let p = Problem.of_maxcut (triangle ()) in
  let params = Ansatz.params_p1 ~gamma:0.5 ~beta:0.3 in
  let c = Ansatz.circuit p params in
  (* 3 H + 3 CPHASE + 3 RX + 3 measure *)
  Alcotest.(check int) "gate count" 12 (Qaoa_circuit.Circuit.length c);
  let unmeasured = Ansatz.circuit ~measure:false p params in
  Alcotest.(check int) "without measure" 9 (Qaoa_circuit.Circuit.length unmeasured)

let test_ansatz_multilevel () =
  let p = Problem.of_maxcut (triangle ()) in
  let params = { Ansatz.gammas = [| 0.5; 0.2 |]; betas = [| 0.3; 0.7 |] } in
  let c = Ansatz.circuit ~measure:false p params in
  (* 3 H + 2 * (3 CPHASE + 3 RX) *)
  Alcotest.(check int) "two levels" 15 (Qaoa_circuit.Circuit.length c);
  Alcotest.check_raises "level mismatch"
    (Invalid_argument "Ansatz.levels: gamma/beta length mismatch") (fun () ->
      ignore (Ansatz.levels { Ansatz.gammas = [| 1.0 |]; betas = [||] }))

(* The commutativity property at the heart of the paper: any CPHASE order
   produces the same output state. *)
let test_commutativity_explicit () =
  let p = Problem.of_maxcut (triangle ()) in
  let params = Ansatz.params_p1 ~gamma:0.9 ~beta:0.4 in
  let reference = Ansatz.state p params in
  List.iter
    (fun order ->
      let c = Ansatz.circuit ~measure:false ~orders:[ order ] p params in
      Alcotest.(check bool) "same state" true
        (Statevector.equal_up_to_global_phase reference
           (Statevector.of_circuit c)))
    [
      [ (0, 1); (1, 2); (0, 2) ];
      [ (0, 2); (0, 1); (1, 2) ];
      [ (1, 2); (0, 2); (0, 1) ];
    ]

let prop_commutativity =
  QCheck.Test.make ~name:"CPHASE order never changes the output state"
    ~count:40
    QCheck.(pair (int_bound 100000) (int_range 3 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.6 in
      QCheck.assume (Graph.num_edges g > 1);
      let p = Problem.of_maxcut g in
      let params =
        Ansatz.params_p1 ~gamma:(Rng.float rng 3.0) ~beta:(Rng.float rng 1.5)
      in
      let reference = Ansatz.state p params in
      let order = Rng.shuffle_list rng (Problem.cphase_pairs p) in
      let shuffled = Ansatz.circuit ~measure:false ~orders:[ order ] p params in
      Statevector.equal_up_to_global_phase reference
        (Statevector.of_circuit shuffled))

let test_order_validation () =
  let p = Problem.of_maxcut (triangle ()) in
  Alcotest.check_raises "wrong order"
    (Invalid_argument "Ansatz: order is not a permutation of the problem's pairs")
    (fun () ->
      ignore
        (Ansatz.cost_layer_gates ~order:[ (0, 1) ] p ~gamma:0.5))

let test_cphase_gate_helper () =
  let p = Problem.of_maxcut (triangle ()) in
  (match Ansatz.cphase_gate p ~gamma:0.5 (0, 1) with
  | Qaoa_circuit.Gate.Cphase (0, 1, theta) ->
    (* MaxCut coefficient is -1/2, so theta = 2 * 0.5 * (-0.5) *)
    Alcotest.(check (float 1e-12)) "angle" (-0.5) theta
  | _ -> Alcotest.fail "expected cphase");
  Alcotest.check_raises "not a term"
    (Invalid_argument "Ansatz: pair is not a quadratic term") (fun () ->
      ignore (Ansatz.cphase_gate (Problem.of_maxcut (Generators.path 3)) ~gamma:0.5 (0, 2)))

let test_expectation_at_zero () =
  (* gamma = beta = 0: uniform superposition; every edge cut with p 1/2 *)
  let g = triangle () in
  let p = Problem.of_maxcut g in
  let e = Ansatz.expectation p (Ansatz.params_p1 ~gamma:0.0 ~beta:0.0) in
  Alcotest.(check (float 1e-9)) "m/2" 1.5 e

let test_approximation_ratio_of_samples () =
  let p = Problem.of_maxcut (triangle ()) in
  (* samples achieving the optimum everywhere give ratio 1 *)
  Alcotest.(check (float 1e-9)) "perfect" 1.0
    (Ansatz.approximation_ratio_of_samples p [| 0b001; 0b110 |]);
  Alcotest.(check (float 1e-9)) "zero" 0.0
    (Ansatz.approximation_ratio_of_samples p [| 0b000 |])

(* --- Analytic p=1 expectation vs simulator --- *)

let test_analytic_matches_simulator_triangle () =
  let g = triangle () in
  let p = Problem.of_maxcut g in
  List.iter
    (fun (gamma, beta) ->
      let analytic = Analytic.expectation g ~gamma ~beta in
      let sim = Ansatz.expectation p (Ansatz.params_p1 ~gamma ~beta) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "g=%.2f b=%.2f" gamma beta)
        sim analytic)
    [ (0.0, 0.0); (0.5, 0.3); (1.2, 0.8); (2.7, 1.1); (0.9, 0.2) ]

let prop_analytic_matches_simulator =
  QCheck.Test.make
    ~name:"closed-form p=1 expectation agrees with the statevector" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 3 7))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.5 in
      QCheck.assume (Graph.num_edges g > 0);
      let gamma = Rng.float rng 3.0 and beta = Rng.float rng 1.5 in
      let analytic = Analytic.expectation g ~gamma ~beta in
      let sim =
        Ansatz.expectation (Problem.of_maxcut g) (Ansatz.params_p1 ~gamma ~beta)
      in
      Float.abs (analytic -. sim) < 1e-7)

let test_analytic_optimize_beats_random () =
  let g = Generators.cycle 6 in
  let params, value = Optimizer.optimize_p1 ~grid:32 (Analytic.expectation g) in
  (* p=1 QAOA on a ring achieves expectation 3/4 per edge = 4.5 on C6 *)
  Alcotest.(check bool) "near known optimum" true (value > 4.4);
  let sim = Ansatz.expectation (Problem.of_maxcut g) params in
  Alcotest.(check (float 1e-6)) "simulator agrees at optimum" value sim

(* --- Optimizer --- *)

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let x, v = Optimizer.nelder_mead ~initial:[| 0.0; 0.0 |] ~step:0.5 f in
  Alcotest.(check bool) "found minimum" true (v < 1e-4);
  Alcotest.(check bool) "x near 3" true (Float.abs (x.(0) -. 3.0) < 0.02);
  Alcotest.(check bool) "y near -1" true (Float.abs (x.(1) +. 1.0) < 0.02)

let test_nelder_mead_maximize () =
  let f x = -.((x.(0) -. 2.0) ** 2.0) in
  let x, v = Optimizer.nelder_mead ~maximize:true ~initial:[| 0.0 |] ~step:0.5 f in
  Alcotest.(check bool) "max value near 0" true (v > -1e-6);
  Alcotest.(check bool) "argmax near 2" true (Float.abs (x.(0) -. 2.0) < 1e-3)

let test_optimize_p1_on_simulator () =
  let g = Generators.cycle 4 in
  let p = Problem.of_maxcut g in
  let params, value =
    Optimizer.optimize_p1 ~grid:16 (fun ~gamma ~beta ->
        Ansatz.expectation p (Ansatz.params_p1 ~gamma ~beta))
  in
  (* exceeds the uniform-superposition baseline m/2 = 2 *)
  Alcotest.(check bool) "beats random" true (value > 2.5);
  Alcotest.(check int) "p=1" 1 (Ansatz.levels params)

let test_optimize_params_p2 () =
  let rng = Rng.create 23 in
  let g = triangle () in
  let p = Problem.of_maxcut g in
  let baseline =
    let _, v =
      Optimizer.optimize_p1 ~grid:16 (fun ~gamma ~beta ->
          Ansatz.expectation p (Ansatz.params_p1 ~gamma ~beta))
    in
    v
  in
  let _, v2 =
    Optimizer.optimize_params rng ~p:2 (fun params -> Ansatz.expectation p params)
  in
  (* p=2 should do at least as well as p=1 (tolerance for optimizer noise) *)
  Alcotest.(check bool) "monotone in p" true (v2 > baseline -. 0.05)

let suite =
  [
    ("maxcut cost", `Quick, test_maxcut_cost);
    ("weighted maxcut", `Quick, test_maxcut_weighted);
    ("brute force optimum", `Quick, test_brute_force);
    ("problem normalization", `Quick, test_problem_normalization);
    ("linear terms", `Quick, test_linear_terms);
    ("ops per qubit", `Quick, test_ops_per_qubit);
    ("ansatz structure", `Quick, test_ansatz_structure);
    ("ansatz multilevel", `Quick, test_ansatz_multilevel);
    ("commutativity explicit", `Quick, test_commutativity_explicit);
    ("order validation", `Quick, test_order_validation);
    ("cphase gate helper", `Quick, test_cphase_gate_helper);
    ("expectation at zero", `Quick, test_expectation_at_zero);
    ("approximation ratio of samples", `Quick, test_approximation_ratio_of_samples);
    ("analytic vs simulator (triangle)", `Quick, test_analytic_matches_simulator_triangle);
    ("analytic optimize", `Quick, test_analytic_optimize_beats_random);
    ("nelder-mead quadratic", `Quick, test_nelder_mead_quadratic);
    ("nelder-mead maximize", `Quick, test_nelder_mead_maximize);
    ("optimize p1 on simulator", `Quick, test_optimize_p1_on_simulator);
    ("optimize params p2", `Slow, test_optimize_params_p2);
    QCheck_alcotest.to_alcotest prop_commutativity;
    QCheck_alcotest.to_alcotest prop_analytic_matches_simulator;
  ]
