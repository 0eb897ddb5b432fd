(* Unit and property tests for the circuit IR: gates, layering/depth,
   decomposition, metrics and QASM export.  Depth figures are anchored to
   the paper's Fig. 1 worked example. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Layering = Qaoa_circuit.Layering
module Decompose = Qaoa_circuit.Decompose
module Metrics = Qaoa_circuit.Metrics
module Qasm = Qaoa_circuit.Qasm
module Statevector = Qaoa_sim.Statevector
module Rng = Qaoa_util.Rng

let test_gate_queries () =
  Alcotest.(check (list int)) "h qubits" [ 3 ] (Gate.qubits (Gate.H 3));
  Alcotest.(check (list int)) "cx qubits" [ 1; 2 ] (Gate.qubits (Gate.Cnot (1, 2)));
  Alcotest.(check (list int)) "barrier qubits" [] (Gate.qubits Gate.Barrier);
  Alcotest.(check bool) "cphase 2q" true (Gate.is_two_qubit (Gate.Cphase (0, 1, 0.3)));
  Alcotest.(check bool) "rx not 2q" false (Gate.is_two_qubit (Gate.Rx (0, 0.3)));
  Alcotest.(check bool) "measure not unitary" false (Gate.is_unitary (Gate.Measure 0));
  Alcotest.(check string) "cx name" "cx" (Gate.name (Gate.Cnot (0, 1)));
  let g = Gate.map_qubits (fun q -> q + 10) (Gate.Swap (0, 1)) in
  Alcotest.(check (list int)) "map qubits" [ 10; 11 ] (Gate.qubits g)

let test_circuit_builder () =
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  Alcotest.(check int) "len" 2 (Circuit.length c);
  Alcotest.(check int) "qubits" 3 (Circuit.num_qubits c);
  Alcotest.(check (list int)) "used" [ 0; 1 ] (Circuit.used_qubits c);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit: qubit 5 out of range (n=3)") (fun () ->
      ignore (Circuit.append c (Gate.H 5)));
  let c2 = Circuit.concat c (Circuit.of_gates 3 [ Gate.X 2 ]) in
  Alcotest.(check int) "concat len" 3 (Circuit.length c2);
  (* concat preserves order *)
  (match List.rev (Circuit.gates c2) with
  | Gate.X 2 :: _ -> ()
  | _ -> Alcotest.fail "concat order");
  Alcotest.check_raises "concat mismatch"
    (Invalid_argument "Circuit.concat: qubit count mismatch") (fun () ->
      ignore (Circuit.concat c (Circuit.create 2)))

(* Fig. 1(b): randomly ordered K4 MaxCut circuit takes 9 time steps
   (H wall + 6 CPHASE steps + RX wall + measurement). *)
let fig1_circ ~order =
  let c = ref (Circuit.create 4) in
  let add g = c := Circuit.append !c g in
  List.iter (fun q -> add (Gate.H q)) [ 0; 1; 2; 3 ];
  List.iter (fun (a, b) -> add (Gate.Cphase (a, b, 0.7))) order;
  List.iter (fun q -> add (Gate.Rx (q, 0.5))) [ 0; 1; 2; 3 ];
  List.iter (fun q -> add (Gate.Measure q)) [ 0; 1; 2; 3 ];
  !c

let test_fig1_depths () =
  (* circ-1: every consecutive CPHASE shares a qubit -> 6 CPHASE steps *)
  let circ1 =
    fig1_circ ~order:[ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3); (1, 3) ]
  in
  Alcotest.(check int) "circ-1 depth 9" 9 (Layering.depth circ1);
  (* circ-2: intelligently ordered -> 3 CPHASE steps, depth 6 *)
  let circ2 =
    fig1_circ ~order:[ (0, 1); (2, 3); (0, 2); (1, 3); (0, 3); (1, 2) ]
  in
  Alcotest.(check int) "circ-2 depth 6" 6 (Layering.depth circ2)

let test_layering_barrier () =
  let c =
    Circuit.of_gates 2 [ Gate.H 0; Gate.Barrier; Gate.H 1 ]
  in
  Alcotest.(check int) "barrier forces step" 2 (Layering.depth c);
  let no_barrier = Circuit.of_gates 2 [ Gate.H 0; Gate.H 1 ] in
  Alcotest.(check int) "parallel without barrier" 1 (Layering.depth no_barrier)

let test_layers_disjoint_and_ordered () =
  let c =
    Circuit.of_gates 4
      [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 2; Gate.Cnot (2, 3); Gate.Cnot (1, 2) ]
  in
  let layers = Layering.layers c in
  Alcotest.(check bool) "disjoint" true (Layering.check_layers_disjoint layers);
  Alcotest.(check int) "depth equals layer count" (Layering.depth c)
    (List.length layers);
  (* flattening layers preserves the gate multiset *)
  let flat = List.concat layers in
  Alcotest.(check int) "all gates present" (Circuit.length c) (List.length flat)

let test_empty_circuit () =
  let c = Circuit.create 3 in
  Alcotest.(check int) "empty depth" 0 (Layering.depth c);
  Alcotest.(check int) "no layers" 0 (List.length (Layering.layers c));
  let m = Metrics.of_circuit c in
  Alcotest.(check int) "no gates" 0 m.Metrics.gate_count

(* The per-qubit busy count lives in the dataflow summary: its maximum
   is the [busy_bound] half of the depth lower bound. *)
let test_qubit_busy_time () =
  let busy gates =
    (Qaoa_analysis.Dataflow.analyze (Circuit.of_gates 3 gates))
      .Qaoa_analysis.Dataflow.busy_bound
  in
  Alcotest.(check int) "busiest qubit" 3
    (busy [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 0 ]);
  Alcotest.(check int) "barriers occupy no step" 3
    (busy [ Gate.H 1; Gate.Barrier; Gate.Cnot (0, 1); Gate.Barrier; Gate.H 1 ])

(* Decomposition must preserve semantics exactly. *)
let check_same_state a b =
  let sa = Statevector.of_circuit a and sb = Statevector.of_circuit b in
  Alcotest.(check bool) "states equal" true
    (Statevector.equal_up_to_global_phase ~eps:1e-9 sa sb)

let test_cphase_decomposition_semantics () =
  List.iter
    (fun theta ->
      let pre = [ Gate.H 0; Gate.H 1; Gate.Rx (0, 0.3) ] in
      let a = Circuit.of_gates 2 (pre @ [ Gate.Cphase (0, 1, theta) ]) in
      let b = Circuit.of_gates 2 (pre @ Decompose.gate (Gate.Cphase (0, 1, theta))) in
      check_same_state a b)
    [ 0.0; 0.3; 1.0; Float.pi; -2.5 ]

let test_swap_decomposition_semantics () =
  let pre = [ Gate.H 0; Gate.Rx (1, 1.1); Gate.Ry (0, 0.4) ] in
  let a = Circuit.of_gates 2 (pre @ [ Gate.Swap (0, 1) ]) in
  let b = Circuit.of_gates 2 (pre @ Decompose.gate (Gate.Swap (0, 1))) in
  check_same_state a b

let test_decompose_counts () =
  let c =
    Circuit.of_gates 3
      [ Gate.H 0; Gate.Cphase (0, 1, 0.5); Gate.Swap (1, 2); Gate.Measure 0 ]
  in
  let d = Decompose.circuit c in
  let cx =
    List.length
      (List.filter (function Gate.Cnot _ -> true | _ -> false) (Circuit.gates d))
  in
  Alcotest.(check int) "cx count 2+3" 5 cx;
  Alcotest.(check bool) "all basis" true
    (List.for_all Decompose.is_basis (Circuit.gates d))

let test_metrics () =
  let c =
    Circuit.of_gates 3
      [ Gate.H 0; Gate.Cphase (0, 1, 0.5); Gate.Swap (1, 2); Gate.Measure 0 ]
  in
  let m = Metrics.of_circuit c in
  (* h + (cx rz cx) + (cx cx cx) = 7 native gates *)
  Alcotest.(check int) "gate count" 7 m.Metrics.gate_count;
  Alcotest.(check int) "cx count" 5 m.Metrics.two_qubit_count;
  Alcotest.(check int) "measures" 1 m.Metrics.measure_count;
  let by_name = Metrics.counts_by_name c in
  Alcotest.(check (option int)) "cx by name" (Some 5) (List.assoc_opt "cx" by_name);
  Alcotest.(check (option int)) "rz by name" (Some 1) (List.assoc_opt "rz" by_name)

let test_map_qubits_circuit () =
  let c = Circuit.of_gates 4 [ Gate.Cnot (0, 1); Gate.H 2 ] in
  let m = Circuit.map_qubits (fun q -> 3 - q) c in
  match Circuit.gates m with
  | [ Gate.Cnot (3, 2); Gate.H 1 ] -> ()
  | _ -> Alcotest.fail "map_qubits wrong"

let test_qasm_export () =
  let c =
    Circuit.of_gates 2
      [ Gate.H 0; Gate.Cphase (0, 1, 0.5); Gate.Measure 1 ]
  in
  let s = Qasm.to_string c in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "OPENQASM 2.0;");
  Alcotest.(check bool) "qreg" true (contains "qreg q[2];");
  Alcotest.(check bool) "creg present" true (contains "creg c[2];");
  Alcotest.(check bool) "cphase lowered" true (contains "cx q[0],q[1];");
  Alcotest.(check bool) "rz emitted" true (contains "rz(0.5) q[1];");
  let no_measure = Circuit.of_gates 1 [ Gate.H 0 ] in
  let s2 = Qasm.to_string no_measure in
  Alcotest.(check bool) "no creg without measure" false
    (let nl = "creg" in
     let rec go i =
       i + String.length nl <= String.length s2
       && (String.sub s2 i (String.length nl) = nl || go (i + 1))
     in
     go 0)

(* QCheck: ASAP layering of random circuits is a valid schedule: layers
   are qubit-disjoint and respect per-qubit gate order. *)
let random_circuit rng n len =
  let gates =
    List.init len (fun _ ->
        match Rng.int rng 5 with
        | 0 -> Gate.H (Rng.int rng n)
        | 1 -> Gate.Rx (Rng.int rng n, Rng.float rng 3.0)
        | 2 ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          Gate.Cnot (a, b)
        | 3 ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          Gate.Cphase (a, b, Rng.float rng 3.0)
        | _ -> Gate.Rz (Rng.int rng n, Rng.float rng 3.0))
  in
  Circuit.of_gates n gates

let prop_layering_valid =
  QCheck.Test.make ~name:"ASAP layers are disjoint and complete" ~count:100
    QCheck.(pair (int_bound 100000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_circuit rng n 30 in
      let layers = Layering.layers c in
      Layering.check_layers_disjoint layers
      && List.length (List.concat layers) = Circuit.length c)

(* QCheck: executing the layered order gives the same state as the
   original program order (ASAP only reorders commuting-by-disjointness
   gates). *)
let prop_layering_semantics =
  QCheck.Test.make ~name:"ASAP schedule preserves semantics" ~count:50
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_circuit rng n 25 in
      let relaid = Circuit.of_gates n (List.concat (Layering.layers c)) in
      Statevector.equal_up_to_global_phase ~eps:1e-9
        (Statevector.of_circuit c)
        (Statevector.of_circuit relaid))

(* QCheck: decomposition preserves semantics on random circuits. *)
let prop_decompose_semantics =
  QCheck.Test.make ~name:"decomposition preserves semantics" ~count:50
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_circuit rng n 20 in
      Statevector.equal_up_to_global_phase ~eps:1e-9
        (Statevector.of_circuit c)
        (Statevector.of_circuit (Decompose.circuit c)))

let suite =
  [
    ("gate queries", `Quick, test_gate_queries);
    ("circuit builder", `Quick, test_circuit_builder);
    ("fig.1 depth anchor", `Quick, test_fig1_depths);
    ("barrier layering", `Quick, test_layering_barrier);
    ("layers disjoint", `Quick, test_layers_disjoint_and_ordered);
    ("empty circuit", `Quick, test_empty_circuit);
    ("qubit busy time", `Quick, test_qubit_busy_time);
    ("cphase decomposition", `Quick, test_cphase_decomposition_semantics);
    ("swap decomposition", `Quick, test_swap_decomposition_semantics);
    ("decompose counts", `Quick, test_decompose_counts);
    ("metrics", `Quick, test_metrics);
    ("map qubits", `Quick, test_map_qubits_circuit);
    ("qasm export", `Quick, test_qasm_export);
    QCheck_alcotest.to_alcotest prop_layering_valid;
    QCheck_alcotest.to_alcotest prop_layering_semantics;
    QCheck_alcotest.to_alcotest prop_decompose_semantics;
  ]
