(* Tests for the extension modules: QASM parsing, reverse-traversal
   refinement, VQA allocation and iterative recompilation. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Qasm = Qaoa_circuit.Qasm
module Decompose = Qaoa_circuit.Decompose
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Topologies = Qaoa_hardware.Topologies
module Mapping = Qaoa_backend.Mapping
module Compliance = Qaoa_backend.Compliance
module Router = Qaoa_backend.Router
module Statevector = Qaoa_sim.Statevector
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Qaim = Qaoa_core.Qaim
module Reverse_traversal = Qaoa_core.Reverse_traversal
module Vqa = Qaoa_core.Vqa
module Iterative = Qaoa_core.Iterative
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng

(* --- QASM parsing --- *)

let test_qasm_parse_simple () =
  let src =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
     h q[0];\ncx q[0],q[1];\nrz(0.5) q[1];\nswap q[1],q[2]; // comment\n\
     u1(pi/2) q[2];\nrx(-pi) q[0];\nbarrier q;\nmeasure q[2] -> c[2];\n"
  in
  let c = Qasm.of_string src in
  Alcotest.(check int) "qubits" 3 (Circuit.num_qubits c);
  match Circuit.gates c with
  | [
   Gate.H 0;
   Gate.Cnot (0, 1);
   Gate.Rz (1, a);
   Gate.Swap (1, 2);
   Gate.Phase (2, b);
   Gate.Rx (0, x);
   Gate.Barrier;
   Gate.Measure 2;
  ] ->
    Alcotest.(check (float 1e-12)) "rz angle" 0.5 a;
    Alcotest.(check (float 1e-12)) "pi/2" (Float.pi /. 2.0) b;
    Alcotest.(check (float 1e-12)) "-pi" (-.Float.pi) x
  | _ -> Alcotest.fail "unexpected gate sequence"

let test_qasm_roundtrip_semantics () =
  let rng = Rng.create 9 in
  for _ = 1 to 10 do
    let gates =
      List.init 20 (fun _ ->
          match Rng.int rng 6 with
          | 0 -> Gate.H (Rng.int rng 4)
          | 1 -> Gate.Rz (Rng.int rng 4, Rng.float rng 6.0 -. 3.0)
          | 2 -> Gate.Rx (Rng.int rng 4, Rng.float rng 6.0 -. 3.0)
          | 3 ->
            let a = Rng.int rng 4 in
            Gate.Cnot (a, (a + 1) mod 4)
          | 4 ->
            let a = Rng.int rng 4 in
            Gate.Cphase (a, (a + 1) mod 4, Rng.float rng 6.0 -. 3.0)
          | _ ->
            let a = Rng.int rng 4 in
            Gate.Swap (a, (a + 1) mod 4))
    in
    let c = Circuit.of_gates 4 gates in
    let parsed = Qasm.of_string (Qasm.to_string c) in
    (* roundtrip returns the decomposed form; semantics must match *)
    Alcotest.(check bool) "roundtrip semantics" true
      (Statevector.equal_up_to_global_phase ~eps:1e-9
         (Statevector.of_circuit c)
         (Statevector.of_circuit parsed));
    Alcotest.(check int) "roundtrip gate count"
      (Circuit.length (Decompose.circuit c))
      (Circuit.length parsed)
  done

let test_qasm_parse_errors () =
  let expect_failure src =
    match Qasm.of_string src with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "qreg q[2];\nfancygate q[0];\n";
  expect_failure "qreg q[2];\nrx() q[0];\n";
  expect_failure "qreg q[2];\ncx q[0];\n";
  expect_failure "h q[0];\n" (* no qreg *);
  expect_failure "qreg q[3];\ncx q[0],q[100000000000000];\n";
  expect_failure "qreg q[3];\nh q[-1];\n"

(* A two-qubit gate names two distinct qubits; one named twice is
   malformed input, refused where it is read. *)
let test_qasm_repeated_operand () =
  List.iter
    (fun (src, msg) ->
      Alcotest.check_raises src (Failure msg) (fun () ->
          ignore (Qasm.of_string src)))
    [
      ("qreg q[2];\ncx q[1],q[1];\n", "qasm: line 2: cx names qubit 1 twice");
      ("qreg q[2];\nswap q[0], q[0];\n", "qasm: line 2: swap names qubit 0 twice");
    ]

let test_qasm_angle_expressions () =
  let c = Qasm.of_string "qreg q[1];\nrz(3*pi/2) q[0];\nrz(2.5e-1) q[0];\n" in
  match Circuit.gates c with
  | [ Gate.Rz (0, a); Gate.Rz (0, b) ] ->
    Alcotest.(check (float 1e-12)) "3*pi/2" (3.0 *. Float.pi /. 2.0) a;
    Alcotest.(check (float 1e-12)) "scientific" 0.25 b
  | _ -> Alcotest.fail "bad parse"

(* --- Reverse traversal --- *)

let test_reverse_circuit () =
  let c =
    Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.Measure 0 ]
  in
  let r = Reverse_traversal.reverse_circuit c in
  match Circuit.gates r with
  | [ Gate.Cnot (0, 1); Gate.H 0 ] -> ()
  | _ -> Alcotest.fail "expected reversed unitary gates without measure"

let test_reverse_traversal_improves_or_matches () =
  (* Refined mappings must stay valid, and on average not increase the
     swap count of a fresh compilation. *)
  let rng = Rng.create 31 in
  let device = Topologies.ibmq_16_melbourne () in
  let swaps_with initial circuit =
    (Router.route ~device ~initial circuit).Router.swap_count
  in
  let total_before = ref 0 and total_after = ref 0 in
  for seed = 0 to 7 do
    let g = Generators.random_regular (Rng.create seed) ~n:10 ~d:3 in
    let problem = Problem.of_maxcut g in
    let circuit =
      Ansatz.circuit ~measure:false problem
        (Ansatz.params_p1 ~gamma:0.7 ~beta:0.4)
    in
    let initial = Qaoa_core.Naive.initial_mapping rng device problem in
    let refined = Reverse_traversal.refine ~device ~initial circuit in
    Alcotest.(check int) "refined still covers problem" 10
      (Mapping.num_logical refined);
    total_before := !total_before + swaps_with initial circuit;
    total_after := !total_after + swaps_with refined circuit
  done;
  Alcotest.(check bool)
    (Printf.sprintf "swaps %d -> %d" !total_before !total_after)
    true
    (!total_after <= !total_before)

let test_reverse_traversal_zero_iterations () =
  let device = Topologies.linear 4 in
  let initial = Mapping.trivial ~num_logical:4 ~num_physical:4 in
  let c = Circuit.of_gates 4 [ Gate.Cnot (0, 3) ] in
  let refined = Reverse_traversal.refine ~iterations:0 ~device ~initial c in
  Alcotest.(check bool) "identity refinement" true (Mapping.equal initial refined)

(* --- VQA --- *)

let test_vqa_region () =
  let device = Topologies.ibmq_16_melbourne () in
  let region = Vqa.select_region device ~k:6 in
  Alcotest.(check int) "region size" 6 (List.length region);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare region));
  (* the region avoids the device's worst coupling when possible: the
     (3,4) edge has 8.6% error, so 3 and 4 should not both be chosen
     purely for that link; just sanity-check that the best coupling's
     endpoints are included *)
  let cal = Device.calibration_exn device in
  let best_edge =
    List.fold_left
      (fun best (u, v) ->
        match best with
        | None -> Some (u, v)
        | Some (bu, bv) ->
          if Calibration.cnot_error cal u v < Calibration.cnot_error cal bu bv
          then Some (u, v)
          else best)
      None
      (Device.coupling_edges device)
  in
  match best_edge with
  | Some (u, v) ->
    Alcotest.(check bool) "contains a best-edge endpoint" true
      (List.mem u region || List.mem v region)
  | None -> Alcotest.fail "device has edges"

let test_vqa_mapping_valid () =
  let rng = Rng.create 33 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:8 ~d:3) in
  let m = Vqa.initial_mapping rng device problem in
  Alcotest.(check int) "covers problem" 8 (Mapping.num_logical m);
  let targets = Array.to_list (Mapping.l2p_array m) in
  Alcotest.(check int) "injective" 8 (List.length (List.sort_uniq compare targets));
  (* all targets inside the selected region *)
  let region = Vqa.select_region device ~k:8 in
  List.iter
    (fun p -> Alcotest.(check bool) "in region" true (List.mem p region))
    targets

(* A coupling the snapshot does not record is charged
   [Calibration.unrecorded_error], as VIC, QL008 and the resilience sweep
   charge it: dropping melbourne's (0, 14) entry selects the region that
   writing the worst recorded rate (8.6%) into that entry selects. *)
let test_vqa_unrecorded_coupling () =
  let device = Topologies.ibmq_16_melbourne () in
  let cal = Device.calibration_exn device in
  let dropped = Calibration.filter_edges (fun u v _ -> (u, v) <> (0, 14)) cal in
  let unrecorded = Calibration.unrecorded_error dropped in
  Alcotest.(check (float 1e-12)) "worst recorded rate" 0.0860 unrecorded;
  let charged =
    Calibration.map_errors
      (fun u v e -> if (u, v) = (0, 14) then unrecorded else e)
      cal
  in
  let region c = Vqa.select_region (Device.with_calibration device c) ~k:8 in
  Alcotest.(check (list int)) "charged entry" [ 0; 1; 2; 3; 11; 12; 13; 14 ]
    (region charged);
  Alcotest.(check (list int)) "unrecorded = charged" (region charged)
    (region dropped)

let test_vqa_requires_calibration () =
  let device = Topologies.ibmq_20_tokyo () in
  Alcotest.check_raises "no calibration"
    (Invalid_argument "ibmq_20_tokyo: device has no calibration data")
    (fun () -> ignore (Vqa.select_region device ~k:4))

(* --- Iterative recompilation --- *)

let test_iterative_improves_or_matches_single () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem =
    Problem.of_maxcut (Generators.random_regular (Rng.create 3) ~n:10 ~d:3)
  in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  let single = Compile.compile ~strategy:(Compile.Ic None) device problem params in
  let iterated =
    Iterative.compile ~patience:3 ~max_rounds:12 ~strategy:(Compile.Ic None)
      device problem params
  in
  Alcotest.(check bool) "at least one round" true (iterated.Iterative.rounds >= 1);
  Alcotest.(check bool) "never worse than round 0" true
    (iterated.Iterative.best.Compile.metrics.Qaoa_circuit.Metrics.depth
    <= single.Compile.metrics.Qaoa_circuit.Metrics.depth);
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device iterated.Iterative.best.Compile.circuit)

let test_iterative_validation () =
  let device = Topologies.linear 4 in
  let problem = Problem.of_maxcut (Generators.path 3) in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  Alcotest.check_raises "bad patience"
    (Invalid_argument "Iterative.compile: patience and max_rounds must be >= 1")
    (fun () ->
      ignore
        (Iterative.compile ~patience:0 ~strategy:Compile.Naive device problem
           params))

let suite =
  [
    ("qasm parse simple", `Quick, test_qasm_parse_simple);
    ("qasm roundtrip semantics", `Quick, test_qasm_roundtrip_semantics);
    ("qasm parse errors", `Quick, test_qasm_parse_errors);
    ("qasm repeated operand refused", `Quick, test_qasm_repeated_operand);
    ("qasm angle expressions", `Quick, test_qasm_angle_expressions);
    ("reverse circuit", `Quick, test_reverse_circuit);
    ("reverse traversal refines", `Slow, test_reverse_traversal_improves_or_matches);
    ("reverse traversal zero iterations", `Quick, test_reverse_traversal_zero_iterations);
    ("vqa region", `Quick, test_vqa_region);
    ("vqa mapping valid", `Quick, test_vqa_mapping_valid);
    ("vqa unrecorded coupling", `Quick, test_vqa_unrecorded_coupling);
    ("vqa requires calibration", `Quick, test_vqa_requires_calibration);
    ("iterative vs single shot", `Quick, test_iterative_improves_or_matches_single);
    ("iterative validation", `Quick, test_iterative_validation);
  ]
