(* Tests for the peephole optimizer, the commutation relation and the
   commutation DAG it induces. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Layering = Qaoa_circuit.Layering
module Decompose = Qaoa_circuit.Decompose
module Optimize = Qaoa_circuit.Optimize
module Commute = Qaoa_analysis.Commute
module Dataflow = Qaoa_analysis.Dataflow
module Statevector = Qaoa_sim.Statevector
module Rng = Qaoa_util.Rng

(* --- Optimize --- *)

let test_cancel_pairs () =
  let cases =
    [
      ([ Gate.H 0; Gate.H 0 ], 0);
      ([ Gate.X 1; Gate.X 1 ], 0);
      ([ Gate.Cnot (0, 1); Gate.Cnot (0, 1) ], 0);
      ([ Gate.Swap (0, 1); Gate.Swap (1, 0) ], 0);
      (* reversed CNOT orientation must NOT cancel *)
      ([ Gate.Cnot (0, 1); Gate.Cnot (1, 0) ], 2);
      (* an intervening gate on a shared qubit blocks cancellation *)
      ([ Gate.H 0; Gate.Rz (0, 0.5); Gate.H 0 ], 3);
      (* an intervening gate on an unrelated qubit does not *)
      ([ Gate.H 0; Gate.Rz (2, 0.5); Gate.H 0 ], 1);
    ]
  in
  List.iter
    (fun (gates, expected) ->
      let c = Optimize.circuit (Circuit.of_gates 3 gates) in
      Alcotest.(check int) "gate count" expected (Circuit.length c))
    cases

let test_merge_rotations () =
  let c =
    Optimize.circuit
      (Circuit.of_gates 2 [ Gate.Rz (0, 0.3); Gate.Rz (0, 0.4) ])
  in
  (match Circuit.gates c with
  | [ Gate.Rz (0, a) ] -> Alcotest.(check (float 1e-12)) "sum" 0.7 a
  | _ -> Alcotest.fail "expected one merged rz");
  (* merging to zero drops the gate entirely *)
  let z =
    Optimize.circuit
      (Circuit.of_gates 2 [ Gate.Rx (1, 0.3); Gate.Rx (1, -0.3) ])
  in
  Alcotest.(check int) "merged to identity" 0 (Circuit.length z);
  (* cphase merges across qubit order *)
  let cp =
    Optimize.circuit
      (Circuit.of_gates 2 [ Gate.Cphase (0, 1, 0.2); Gate.Cphase (1, 0, 0.5) ])
  in
  match Circuit.gates cp with
  | [ Gate.Cphase (_, _, a) ] -> Alcotest.(check (float 1e-12)) "cphase sum" 0.7 a
  | _ -> Alcotest.fail "expected one merged cphase"

let test_zero_rotation_dropped () =
  let c =
    Optimize.circuit
      (Circuit.of_gates 1 [ Gate.Rz (0, 0.0); Gate.Phase (0, 2.0 *. Float.pi) ])
  in
  Alcotest.(check int) "dropped" 0 (Circuit.length c)

let test_barrier_fences () =
  let c =
    Optimize.circuit
      (Circuit.of_gates 1 [ Gate.H 0; Gate.Barrier; Gate.H 0 ])
  in
  (* barrier prevents the cancellation *)
  Alcotest.(check int) "h barrier h kept" 3 (Circuit.length c)

let test_measure_blocks () =
  let c =
    Optimize.circuit
      (Circuit.of_gates 1 [ Gate.H 0; Gate.Measure 0; Gate.H 0 ])
  in
  Alcotest.(check int) "measure blocks" 3 (Circuit.length c)

let test_chain_cancellation () =
  (* H H H H collapses fully; H H H leaves one *)
  let four = Optimize.circuit (Circuit.of_gates 1 (List.init 4 (fun _ -> Gate.H 0))) in
  Alcotest.(check int) "four cancel" 0 (Circuit.length four);
  let three = Optimize.circuit (Circuit.of_gates 1 (List.init 3 (fun _ -> Gate.H 0))) in
  Alcotest.(check int) "three leave one" 1 (Circuit.length three)

let test_diagonal_commute_merge () =
  (* rz on a shared wire is diagonal, so the two cphases still merge *)
  let c =
    Optimize.circuit
      (Circuit.of_gates 2
         [ Gate.Cphase (0, 1, 0.3); Gate.Rz (0, 0.4); Gate.Cphase (0, 1, 0.2) ])
  in
  Alcotest.(check int) "merged through rz" 2 (Circuit.length c);
  let angles =
    List.filter_map
      (function
        | Gate.Cphase (_, _, a) -> Some a
        | _ -> None)
      (Circuit.gates c)
  in
  (match angles with
  | [ a ] -> Alcotest.(check (float 1e-12)) "cphase sum" 0.5 a
  | _ -> Alcotest.fail "expected exactly one cphase");
  (* a non-diagonal gate on a shared wire still blocks the merge *)
  let blocked =
    Optimize.circuit
      (Circuit.of_gates 2
         [ Gate.Cphase (0, 1, 0.3); Gate.H 0; Gate.Cphase (0, 1, 0.2) ])
  in
  Alcotest.(check int) "h blocks" 3 (Circuit.length blocked)

let test_cancel_through_commuting () =
  (* CNOT; RZ(control); CNOT: the rz is diagonal on the cnot's control,
     so the pass reaches through it and the cnots cancel at distance *)
  let c =
    Optimize.circuit
      (Circuit.of_gates 2
         [ Gate.Cnot (0, 1); Gate.Rz (0, 0.5); Gate.Cnot (0, 1) ])
  in
  (match Circuit.gates c with
  | [ Gate.Rz (0, a) ] -> Alcotest.(check (float 1e-12)) "rz kept" 0.5 a
  | _ -> Alcotest.fail "expected the cnots to cancel through the rz");
  (* X on the target commutes with CNOT too *)
  let x =
    Optimize.circuit
      (Circuit.of_gates 2 [ Gate.Cnot (0, 1); Gate.X 1; Gate.Cnot (0, 1) ])
  in
  (match Circuit.gates x with
  | [ Gate.X 1 ] -> ()
  | _ -> Alcotest.fail "expected the cnots to cancel through the x");
  (* RZ on the *target* anti-commutes with the CNOT: nothing moves *)
  let blocked =
    Optimize.circuit
      (Circuit.of_gates 2
         [ Gate.Cnot (0, 1); Gate.Rz (1, 0.5); Gate.Cnot (0, 1) ])
  in
  Alcotest.(check int) "target rz blocks" 3 (Circuit.length blocked)

let test_merge_through_commuting () =
  (* the two control-side rotations merge through the cnot *)
  let c =
    Optimize.circuit
      (Circuit.of_gates 2
         [ Gate.Rz (0, 0.3); Gate.Cnot (0, 1); Gate.Rz (0, 0.4) ])
  in
  Alcotest.(check int) "merged" 2 (Circuit.length c);
  match
    List.filter_map
      (function Gate.Rz (0, a) -> Some a | _ -> None)
      (Circuit.gates c)
  with
  | [ a ] -> Alcotest.(check (float 1e-12)) "rz sum" 0.7 a
  | _ -> Alcotest.fail "expected exactly one rz on qubit 0"

let test_redundancies_through_commuting_flag () =
  (* the legacy notion (QL005) cannot see through the cnot's control;
     the full commuting-aware notion (QL012) can *)
  let c =
    Circuit.of_gates 2
      [ Gate.Cnot (0, 1); Gate.Rz (0, 0.5); Gate.Cnot (0, 1) ]
  in
  Alcotest.(check (list (pair int int)))
    "plain notion blind" []
    (Optimize.redundancies ~through_commuting:false c);
  Alcotest.(check (list (pair int int)))
    "commuting notion sees the pair" [ (0, 2) ]
    (Optimize.redundancies c)

let test_redundancies_report () =
  let c =
    Circuit.of_gates 2
      [
        Gate.H 0; Gate.H 0;
        Gate.Cphase (0, 1, 0.1); Gate.Rz (0, 0.2); Gate.Cphase (0, 1, 0.3);
      ]
  in
  Alcotest.(check (list (pair int int)))
    "pairs found" [ (0, 1); (2, 4) ] (Optimize.redundancies c);
  Alcotest.(check (list (pair int int)))
    "clean after optimize" []
    (Optimize.redundancies (Optimize.circuit c))

let test_swap_cphase_lowering_cancels () =
  (* SWAP(a,b) then CPHASE(a,b): after decomposition, cx(a,b) meets
     cx(a,b) back to back and cancels - the win the pass targets. *)
  let c =
    Decompose.circuit
      (Circuit.of_gates 2 [ Gate.Swap (0, 1); Gate.Cphase (0, 1, 0.5) ])
  in
  let before = Circuit.length c in
  let after, stats = Optimize.with_stats c in
  Alcotest.(check int) "before = 6" 6 before;
  Alcotest.(check bool) "reduced" true (Circuit.length after < before);
  Alcotest.(check int) "stats before" before stats.Optimize.gates_before;
  Alcotest.(check int) "stats after" (Circuit.length after) stats.Optimize.gates_after;
  (* semantics preserved *)
  Alcotest.(check bool) "same state" true
    (Statevector.equal_up_to_global_phase
       (Statevector.of_circuit c)
       (Statevector.of_circuit (Circuit.of_gates 2 (Circuit.gates after))))

let random_circuit rng n len =
  Circuit.of_gates n
    (List.init len (fun _ ->
         match Rng.int rng 8 with
         | 0 -> Gate.H (Rng.int rng n)
         | 1 -> Gate.X (Rng.int rng n)
         | 2 -> Gate.Rz (Rng.int rng n, Rng.float rng 6.3 -. 3.15)
         | 3 -> Gate.Rx (Rng.int rng n, Rng.float rng 6.3 -. 3.15)
         | 4 ->
           let a = Rng.int rng n in
           Gate.Cnot (a, (a + 1) mod n)
         | 5 ->
           let a = Rng.int rng n in
           Gate.Cphase (a, (a + 1) mod n, Rng.float rng 6.3 -. 3.15)
         | 6 ->
           let a = Rng.int rng n in
           Gate.Swap (a, (a + 1) mod n)
         | _ -> Gate.Phase (Rng.int rng n, Rng.float rng 6.3 -. 3.15)))

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"peephole preserves semantics up to global phase"
    ~count:60
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_circuit rng n 40 in
      let o = Optimize.circuit c in
      Circuit.length o <= Circuit.length c
      && Statevector.equal_up_to_global_phase ~eps:1e-8
           (Statevector.of_circuit c) (Statevector.of_circuit o))

let prop_optimize_idempotent =
  QCheck.Test.make ~name:"peephole is idempotent" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = Optimize.circuit (random_circuit rng n 30) in
      Circuit.equal c (Optimize.circuit c))

(* QCheck: the lint-facing redundancy report agrees with the rewriter -
   once the optimizer reaches a fixpoint, nothing is left to report. *)
let prop_redundancies_empty_on_fixpoint =
  QCheck.Test.make
    ~name:"redundancies is empty on an optimizer fixpoint" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      Optimize.redundancies (Optimize.circuit (random_circuit rng n 35)) = [])

(* Linear-only gates so the phase-polynomial oracle is always
   conclusive: the commuting look-through must preserve the canonical
   form exactly, on registers too big for the statevector. *)
let random_linear_circuit rng n len =
  let other a = (a + 1 + Rng.int rng (n - 1)) mod n in
  Circuit.of_gates n
    (List.init len (fun _ ->
         match Rng.int rng 6 with
         | 0 -> Gate.X (Rng.int rng n)
         | 1 -> Gate.Z (Rng.int rng n)
         | 2 -> Gate.Rz (Rng.int rng n, Rng.float rng 6.2 -. 3.1)
         | 3 ->
           let a = Rng.int rng n in
           Gate.Cnot (a, other a)
         | 4 ->
           let a = Rng.int rng n in
           Gate.Cphase (a, other a, Rng.float rng 6.2)
         | _ -> Gate.Phase (Rng.int rng n, Rng.float rng 6.2 -. 3.1)))

let prop_optimize_phase_poly_equivalent =
  QCheck.Test.make
    ~name:"peephole output is phase-polynomial equivalent" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_linear_circuit rng n 30 in
      match
        Qaoa_analysis.Phase_poly.equal_up_to_global_phase c
          (Optimize.circuit c)
      with
      | Qaoa_analysis.Phase_poly.Equivalent -> true
      | v ->
        QCheck.Test.fail_reportf "optimized circuit diverged: %s"
          (Qaoa_analysis.Phase_poly.verdict_to_string v))

(* --- commutation DAG --- *)

let test_commutes_relation () =
  Alcotest.(check bool) "disjoint" true
    (Gate.commutes (Gate.H 0) (Gate.H 1));
  Alcotest.(check bool) "diagonal pair" true
    (Gate.commutes (Gate.Cphase (0, 1, 0.5)) (Gate.Cphase (1, 2, 0.3)));
  Alcotest.(check bool) "rz through cphase" true
    (Gate.commutes (Gate.Rz (1, 0.4)) (Gate.Cphase (1, 2, 0.3)));
  Alcotest.(check bool) "h vs cphase conservative" false
    (Gate.commutes (Gate.H 1) (Gate.Cphase (1, 2, 0.3)));
  Alcotest.(check bool) "cnot control diagonal" true
    (Gate.commutes (Gate.Cnot (0, 1)) (Gate.Rz (0, 0.4)));
  Alcotest.(check bool) "cnot target x" true
    (Gate.commutes (Gate.Cnot (0, 1)) (Gate.X 1));
  Alcotest.(check bool) "cnot target diagonal no" false
    (Gate.commutes (Gate.Cnot (0, 1)) (Gate.Rz (1, 0.4)));
  Alcotest.(check bool) "same-axis rotations" true
    (Gate.commutes (Gate.Rx (0, 0.1)) (Gate.Rx (0, 0.2)));
  Alcotest.(check bool) "measure ordered" false
    (Gate.commutes (Gate.Measure 0) (Gate.H 0))

let test_dag_qaoa_cost_layer_depth () =
  (* K4's six CPHASEs all commute: the commutation-aware schedule must
     reach the bin-packing bound of 3, independent of the (bad) given
     order. *)
  let bad_order =
    [ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3); (1, 3) ]
  in
  let c =
    Circuit.of_gates 4
      (List.map (fun (a, b) -> Gate.Cphase (a, b, 0.5)) bad_order)
  in
  Alcotest.(check int) "naive layering depth 6" 6 (Layering.depth c);
  let s = Dataflow.analyze c in
  Alcotest.(check int) "commutation-aware depth 3" 3 s.Dataflow.asap_depth;
  Alcotest.(check int) "no dependency chain" 1 s.Dataflow.critical_path

let test_dag_ordered_dependencies () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 1 ] in
  let dag = Commute.build c in
  Alcotest.(check (list int)) "cnot depends on h0" [ 0 ] (Commute.predecessors dag 1);
  Alcotest.(check (list int)) "h1 depends on cnot" [ 1 ] (Commute.predecessors dag 2);
  Alcotest.(check (list int)) "h0 has successor cnot" [ 1 ] (Commute.successors dag 0);
  let s = Dataflow.analyze c in
  Alcotest.(check int) "depth 3" 3 s.Dataflow.asap_depth;
  Alcotest.(check int) "critical path 3" 3 s.Dataflow.critical_path

let test_dag_barrier () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Barrier; Gate.H 1 ] in
  let dag = Commute.build c in
  (* barrier orders h1 after h0 but costs no time step of its own *)
  let s = Dataflow.analyze c in
  Alcotest.(check int) "depth 2" 2 s.Dataflow.asap_depth;
  Alcotest.(check int) "critical path 2" 2 s.Dataflow.critical_path;
  Alcotest.(check (list int)) "h1 waits for barrier" [ 1 ] (Commute.predecessors dag 2)

let test_dag_empty () =
  let c = Circuit.create 3 in
  let s = Dataflow.analyze c in
  Alcotest.(check int) "empty depth" 0 s.Dataflow.asap_depth;
  Alcotest.(check int) "empty critical path" 0 s.Dataflow.critical_path;
  Alcotest.(check int) "no nodes" 0 (List.length (Commute.nodes (Commute.build c)))

(* QCheck: flattening any topological order of the commutation DAG
   preserves semantics (the commutation relation is sound).  Uses this
   file's generator, whose H, RX and CNOT-target-X cases the linear-only
   generators elsewhere lack. *)
let prop_dag_reorder_sound =
  QCheck.Test.make ~name:"DAG topological reorder preserves semantics"
    ~count:60
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_circuit rng n 25 in
      let dag = Commute.build c in
      let reordered =
        Commute.circuit_of_order dag (Commute.random_linear_extension rng dag)
      in
      Statevector.equal_up_to_global_phase ~eps:1e-8
        (Statevector.of_circuit c)
        (Statevector.of_circuit reordered))

let suite =
  [
    ("cancel pairs", `Quick, test_cancel_pairs);
    ("merge rotations", `Quick, test_merge_rotations);
    ("zero rotations dropped", `Quick, test_zero_rotation_dropped);
    ("barrier fences", `Quick, test_barrier_fences);
    ("measure blocks", `Quick, test_measure_blocks);
    ("chain cancellation", `Quick, test_chain_cancellation);
    ("diagonal commute merge", `Quick, test_diagonal_commute_merge);
    ("cancel through commuting", `Quick, test_cancel_through_commuting);
    ("merge through commuting", `Quick, test_merge_through_commuting);
    ("redundancies through_commuting flag", `Quick,
     test_redundancies_through_commuting_flag);
    ("redundancies report", `Quick, test_redundancies_report);
    ("swap+cphase lowering cancels", `Quick, test_swap_cphase_lowering_cancels);
    ("dag commutes relation", `Quick, test_commutes_relation);
    ("dag qaoa cost layer depth", `Quick, test_dag_qaoa_cost_layer_depth);
    ("dag ordered dependencies", `Quick, test_dag_ordered_dependencies);
    ("dag barrier", `Quick, test_dag_barrier);
    ("dag empty", `Quick, test_dag_empty);
    QCheck_alcotest.to_alcotest prop_optimize_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_optimize_idempotent;
    QCheck_alcotest.to_alcotest prop_redundancies_empty_on_fixpoint;
    QCheck_alcotest.to_alcotest prop_optimize_phase_poly_equivalent;
    QCheck_alcotest.to_alcotest prop_dag_reorder_sound;
  ]
