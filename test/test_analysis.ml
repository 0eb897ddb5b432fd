(* qaoa_analysis: the phase-polynomial canonicalizer (unit equivalences,
   corruption witnesses, qcheck cross-check against the statevector
   oracle) and the lint rule engine (each rule firing and silent, exit
   codes, JSON round-trip), plus the large-register acceptance case: a
   20-qubit compile gets a definite semantic verdict under every policy. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Success = Qaoa_hardware.Success
module Topologies = Qaoa_hardware.Topologies
module Phase_poly = Qaoa_analysis.Phase_poly
module Lint = Qaoa_analysis.Lint
module Commute = Qaoa_analysis.Commute
module Dataflow = Qaoa_analysis.Dataflow
module Layering = Qaoa_circuit.Layering
module Decompose = Qaoa_circuit.Decompose
module Metrics = Qaoa_circuit.Metrics
module Check = Qaoa_verify.Check
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Differential = Qaoa_experiments.Differential
module Generators = Qaoa_graph.Generators
module Statevector = Qaoa_sim.Statevector
module Json = Qaoa_obs.Json
module Rng = Qaoa_util.Rng

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let verdict_equivalent = function Phase_poly.Equivalent -> true | _ -> false

(* --- canonicalizer unit equivalences ------------------------------- *)

let test_known_identities () =
  let eq name a b =
    let va = Phase_poly.equal_up_to_global_phase (Circuit.of_gates 2 a)
        (Circuit.of_gates 2 b)
    in
    Alcotest.(check bool) name true (verdict_equivalent va)
  in
  (* CPHASE = CNOT; RZ(target); CNOT, up to global phase *)
  eq "cphase decomposition"
    [ Gate.Cphase (0, 1, 0.7) ]
    [ Gate.Cnot (0, 1); Gate.Rz (1, 0.7); Gate.Cnot (0, 1) ];
  (* SWAP = three alternating CNOTs *)
  eq "swap decomposition"
    [ Gate.Swap (0, 1) ]
    [ Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.Cnot (0, 1) ];
  (* CPHASE is symmetric in its operands *)
  eq "cphase symmetric" [ Gate.Cphase (0, 1, 1.1) ] [ Gate.Cphase (1, 0, 1.1) ];
  (* X conjugation flips a rotation's sign (complement folding) *)
  eq "x rz x = rz(-theta)"
    [ Gate.X 0; Gate.Rz (0, 0.9); Gate.X 0 ]
    [ Gate.Rz (0, -0.9) ];
  (* Z = Phase(pi) exactly; RZ = Phase up to global phase *)
  eq "z = u1(pi)" [ Gate.Z 0 ] [ Gate.Phase (0, Float.pi) ];
  eq "rz = u1 up to global" [ Gate.Rz (0, 0.4) ] [ Gate.Phase (0, 0.4) ];
  (* commuting diagonal reorder across shared wires *)
  eq "diagonal reorder"
    [ Gate.Cphase (0, 1, 0.3); Gate.Rz (0, 0.8); Gate.Cphase (0, 1, 0.4) ]
    [ Gate.Rz (0, 0.8); Gate.Cphase (0, 1, 0.7) ];
  (* and a genuinely different circuit is not equivalent *)
  let v =
    Phase_poly.equal_up_to_global_phase
      (Circuit.of_gates 2 [ Gate.Cnot (0, 1) ])
      (Circuit.of_gates 2 [ Gate.Cnot (1, 0) ])
  in
  match v with
  | Phase_poly.Inequivalent { detail; _ } ->
    Alcotest.(check bool) "witness names an output wire" true
      (contains_substring ~sub:"output wire" detail)
  | _ -> Alcotest.fail "reversed CNOT should be inequivalent"

let test_segmentation_shape () =
  (* H walls segment the circuit; blocks hold the non-linear gates *)
  let c =
    Circuit.of_gates 2
      [
        Gate.H 0; Gate.H 1;
        Gate.Cphase (0, 1, 0.7);
        Gate.Rx (0, 0.8); Gate.Rx (1, 0.8);
        Gate.Measure 0; Gate.Measure 1;
      ]
  in
  let s = Phase_poly.summarize c in
  Alcotest.(check int) "two blocks" 2 (List.length s.Phase_poly.blocks);
  Alcotest.(check int) "three segments" 3
    (List.length s.Phase_poly.segments);
  (* the middle segment holds the cost term on parity x0^x1 *)
  match List.nth s.Phase_poly.segments 1 with
  | { Phase_poly.terms = [ t ]; _ } ->
    Alcotest.(check string) "cost parity" "x0^x1"
      (Phase_poly.pp_parity t.Phase_poly.parity)
  | _ -> Alcotest.fail "expected exactly one phase term in the cost segment"

(* the acceptance-criterion witness: dropping one CPHASE from a QAOA
   ansatz is caught and attributed to the cost segment *)
let test_dropped_cphase_named () =
  let rng = Rng.create 5 in
  let graph = Generators.erdos_renyi rng ~n:8 ~p:0.5 in
  let problem = Problem.of_maxcut graph in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  let logical = Ansatz.circuit ~measure:true problem params in
  let gates = Circuit.gates logical in
  let dropped = ref false in
  let corrupted =
    Circuit.of_gates (Circuit.num_qubits logical)
      (List.filter
         (fun g ->
           match g with
           | Gate.Cphase _ when not !dropped ->
             dropped := true;
             false
           | _ -> true)
         gates)
  in
  Alcotest.(check bool) "a cphase was dropped" true !dropped;
  match Phase_poly.equal_up_to_global_phase logical corrupted with
  | Phase_poly.Inequivalent { segment; detail } ->
    (* segment 0 precedes the H wall; the cost layer is segment 1 *)
    Alcotest.(check int) "cost segment named" 1 segment;
    Alcotest.(check bool) "witness names the phase term" true
      (contains_substring ~sub:"phase term" detail)
  | v ->
    Alcotest.failf "expected inequivalent, got %s"
      (Phase_poly.verdict_to_string v)

let test_skeleton_mismatch_inconclusive () =
  let a = Circuit.of_gates 2 [ Gate.H 0; Gate.Rz (0, 0.3) ] in
  let b = Circuit.of_gates 2 [ Gate.H 1; Gate.Rz (0, 0.3) ] in
  (match Phase_poly.equal_up_to_global_phase a b with
  | Phase_poly.Inconclusive reason ->
    Alcotest.(check bool) "reason names the block" true
      (contains_substring ~sub:"block" reason)
  | v ->
    Alcotest.failf "expected inconclusive, got %s"
      (Phase_poly.verdict_to_string v));
  let c = Circuit.of_gates 2 [ Gate.Rz (0, 0.3) ] in
  match Phase_poly.equal_up_to_global_phase a c with
  | Phase_poly.Inconclusive reason ->
    Alcotest.(check bool) "reason counts the blocks" true
      (contains_substring ~sub:"1 vs 0" reason)
  | v ->
    Alcotest.failf "expected inconclusive, got %s"
      (Phase_poly.verdict_to_string v)

(* --- qcheck: phase-poly verdict == statevector verdict ------------- *)

let random_linear rng n len =
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
         | _ ->
           let a = Rng.int rng n in
           Gate.Swap (a, other a)))

(* Local rewrites that preserve the unitary up to global phase. *)
let equivalent_rewrite c =
  Circuit.of_gates (Circuit.num_qubits c)
    (List.concat_map
       (fun g ->
         match g with
         | Gate.Cphase (a, b, th) ->
           [ Gate.Cnot (a, b); Gate.Rz (b, th); Gate.Cnot (a, b) ]
         | Gate.Swap (a, b) ->
           [ Gate.Cnot (a, b); Gate.Cnot (b, a); Gate.Cnot (a, b) ]
         | Gate.Rz (q, th) -> [ Gate.Phase (q, th) ]
         | Gate.Z q -> [ Gate.Phase (q, Float.pi) ]
         | g -> [ g ])
       (Circuit.gates c))

let mutate rng c =
  let gates = Array.of_list (Circuit.gates c) in
  let i = Rng.int rng (Array.length gates) in
  (match Rng.int rng 3 with
  | 0 ->
    (* bump a rotation angle (or degrade to an X insert) *)
    gates.(i) <-
      (match gates.(i) with
      | Gate.Rz (q, th) -> Gate.Rz (q, th +. 0.5)
      | Gate.Cphase (a, b, th) -> Gate.Cphase (a, b, th +. 0.5)
      | g -> g)
  | 1 -> gates.(i) <- Gate.X (Rng.int rng (Circuit.num_qubits c))
  | _ ->
    (* swap in a reversed CNOT *)
    gates.(i) <-
      (match gates.(i) with Gate.Cnot (a, b) -> Gate.Cnot (b, a) | g -> g));
  Circuit.of_gates (Circuit.num_qubits c) (Array.to_list gates)

(* A random product state distinguishes two distinct affine-permutation
   x diagonal unitaries almost surely (unlike |0...0> or |+...+>, which
   both have large stabilizers). *)
let prep rng n =
  List.concat
    (List.init n (fun q ->
         [
           Gate.Ry (q, 0.3 +. Rng.float rng 2.4);
           Gate.Rz (q, Rng.float rng 6.2);
         ]))

let statevector_equal rng c1 c2 =
  let n = Circuit.num_qubits c1 in
  let p = prep rng n in
  let run c =
    Statevector.of_circuit
      (Circuit.of_gates n (p @ Circuit.gates c))
  in
  Statevector.equal_up_to_global_phase ~eps:1e-6 (run c1) (run c2)

let prop_verdict_matches_statevector =
  QCheck.Test.make
    ~name:"phase-poly verdict == statevector verdict (linear circuits)"
    ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_linear rng n 25 in
      let partner, _expect_equal =
        if Rng.bool rng then (equivalent_rewrite c, true)
        else (mutate rng c, false)
      in
      let pp_equal =
        match Phase_poly.equal_up_to_global_phase c partner with
        | Phase_poly.Equivalent -> true
        | Phase_poly.Inequivalent _ -> false
        | Phase_poly.Inconclusive r ->
          QCheck.Test.fail_reportf
            "linear circuits must never be inconclusive: %s" r
      in
      pp_equal = statevector_equal rng c partner)

(* --- large-register acceptance ------------------------------------- *)

(* 20-qubit ER(0.5) on tokyo under all seven policies: past the
   statevector cutoff, every compile still gets a definite semantic
   verdict from the phase-polynomial oracle, agreeing with the
   structural stage. *)
let test_20q_semantic_verdict_all_policies () =
  let device = Differential.device_of_topology "tokyo" in
  let rng = Rng.create 20 in
  let graph = Generators.erdos_renyi rng ~n:20 ~p:0.5 in
  let problem = Problem.of_maxcut graph in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  let logical = Ansatz.circuit ~measure:true problem params in
  List.iter
    (fun strategy ->
      let options = { Compile.default_options with seed = 20 } in
      let r = Compile.compile ~options ~strategy device problem params in
      let report =
        Check.validate ~device ~initial:r.Compile.initial_mapping
          ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count
          ~logical r.Compile.circuit
      in
      Alcotest.(check bool)
        (Compile.strategy_name strategy ^ " validates")
        true (Check.ok report);
      match report.Check.semantic with
      | Check.Checked { num_qubits = 20; method_ = Check.Phase_polynomial } ->
        ()
      | Check.Checked _ -> Alcotest.fail "expected the phase-poly oracle on 20 qubits"
      | Check.Skipped why -> Alcotest.fail ("semantic skipped: " ^ why))
    Differential.default_strategies

let test_default_options_env_override () =
  Unix.putenv "QAOA_MAX_SEMANTIC_QUBITS" "17";
  Alcotest.(check int) "env override" 17
    (Check.default_options ()).Check.max_semantic_qubits;
  Unix.putenv "QAOA_MAX_SEMANTIC_QUBITS" "not-a-number";
  Alcotest.(check int) "malformed ignored" Check.default_max_semantic_qubits
    (Check.default_options ()).Check.max_semantic_qubits

(* --- lint rules: firing and silent --------------------------------- *)

let rule_ids findings = List.map (fun f -> f.Lint.rule) findings

let lint ?device ?max_depth ?min_success_prob ?lower_bound_factor ~role gates
    ~n =
  Lint.run
    (Lint.context ?device ?max_depth ?min_success_prob ?lower_bound_factor
       ~role (Circuit.of_gates n gates))

let test_ql001_uncoupled_pair () =
  let device = Topologies.linear 3 in
  let fires =
    lint ~device ~role:Lint.Compiled ~n:3
      [ Gate.Cnot (0, 2); Gate.Measure 0; Gate.Measure 2 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL001" (rule_ids fires));
  let silent =
    lint ~device ~role:Lint.Compiled ~n:3
      [ Gate.Cnot (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "silent" false (List.mem "QL001" (rule_ids silent));
  (* logical circuits are never judged against a coupling graph *)
  let logical =
    lint ~device ~role:Lint.Logical ~n:3 [ Gate.Cnot (0, 2) ]
  in
  Alcotest.(check bool) "logical role exempt" false
    (List.mem "QL001" (rule_ids logical))

let test_ql002_missing_calibration () =
  let device =
    Device.with_calibration (Topologies.linear 3)
      (Calibration.create [ (0, 1, 0.01) ])
  in
  let fires =
    lint ~device ~role:Lint.Compiled ~n:3 [ Gate.Cnot (1, 2) ]
  in
  Alcotest.(check (list string)) "fires once" [ "QL002" ] (rule_ids fires);
  let silent = lint ~device ~role:Lint.Compiled ~n:3 [ Gate.Cnot (0, 1) ] in
  Alcotest.(check bool) "calibrated edge silent" false
    (List.mem "QL002" (rule_ids silent));
  (* a device with no snapshot at all: rule skips (no data to lint) *)
  let bare = lint ~device:(Topologies.linear 3) ~role:Lint.Compiled ~n:3
      [ Gate.Cnot (1, 2) ]
  in
  Alcotest.(check bool) "no snapshot, no finding" false
    (List.mem "QL002" (rule_ids bare))

let test_ql003_gate_after_measure () =
  let fires =
    lint ~role:Lint.Logical ~n:2 [ Gate.Measure 0; Gate.H 0 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL003" (rule_ids fires));
  let silent =
    lint ~role:Lint.Logical ~n:2 [ Gate.H 0; Gate.Measure 0; Gate.H 1 ]
  in
  Alcotest.(check bool) "silent" false (List.mem "QL003" (rule_ids silent))

let test_ql004_idle_qubit () =
  let fires = lint ~role:Lint.Logical ~n:3 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  Alcotest.(check bool) "fires for qubit 2" true
    (List.exists
       (fun f ->
         f.Lint.rule = "QL004" && contains_substring ~sub:"qubit 2" f.Lint.message)
       fires);
  (* compiled circuits legitimately leave physical qubits idle *)
  let compiled = lint ~role:Lint.Compiled ~n:3 [ Gate.H 0 ] in
  Alcotest.(check bool) "compiled role exempt" false
    (List.mem "QL004" (rule_ids compiled))

let test_ql005_redundant_adjacent () =
  let fires = lint ~role:Lint.Logical ~n:2 [ Gate.H 0; Gate.H 0 ] in
  (match List.find_opt (fun f -> f.Lint.rule = "QL005") fires with
  | Some f -> Alcotest.(check (option (pair int int))) "span" (Some (0, 1)) f.Lint.gate_span
  | None -> Alcotest.fail "expected QL005");
  let silent =
    lint ~role:Lint.Logical ~n:2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 0 ]
  in
  Alcotest.(check bool) "blocked pair silent" false
    (List.mem "QL005" (rule_ids silent))

let test_ql006_swap_sandwich () =
  let fires =
    lint ~role:Lint.Compiled ~n:2
      [ Gate.H 0; Gate.Swap (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL006" (rule_ids fires));
  let silent =
    lint ~role:Lint.Compiled ~n:2
      [ Gate.Swap (0, 1); Gate.H 0; Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "live wire silent" false
    (List.mem "QL006" (rule_ids silent))

let test_ql007_depth_budget () =
  let deep = [ Gate.H 0; Gate.H 0; Gate.H 0; Gate.H 0 ] in
  let fires = lint ~max_depth:2 ~role:Lint.Logical ~n:1 deep in
  Alcotest.(check bool) "fires" true (List.mem "QL007" (rule_ids fires));
  let silent = lint ~max_depth:100 ~role:Lint.Logical ~n:1 deep in
  Alcotest.(check bool) "big budget silent" false
    (List.mem "QL007" (rule_ids silent));
  let absent = lint ~role:Lint.Logical ~n:1 deep in
  Alcotest.(check bool) "no budget, no rule" false
    (List.mem "QL007" (rule_ids absent))

let test_ql008_success_probability () =
  let device =
    Device.with_calibration (Topologies.linear 3)
      (Calibration.uniform ~cnot_error:0.1 [ (0, 1); (1, 2) ])
  in
  let gates = [ Gate.Cnot (0, 1); Gate.Cnot (1, 2) ] in
  let fires =
    lint ~device ~min_success_prob:0.9 ~role:Lint.Compiled ~n:3 gates
  in
  Alcotest.(check bool) "0.81 < 0.9 fires" true
    (List.mem "QL008" (rule_ids fires));
  let silent =
    lint ~device ~min_success_prob:0.5 ~role:Lint.Compiled ~n:3 gates
  in
  Alcotest.(check bool) "0.81 >= 0.5 silent" false
    (List.mem "QL008" (rule_ids silent));
  (* the rule scores exactly Success's product: silent at it, firing
     one float above it *)
  let cal = Option.get device.Device.calibration in
  let p = Success.of_circuit cal (Circuit.of_gates 3 gates) in
  let fires_at threshold =
    List.mem "QL008"
      (rule_ids (lint ~device ~min_success_prob:threshold ~role:Lint.Compiled ~n:3 gates))
  in
  Alcotest.(check bool) "silent at the product" false (fires_at p);
  Alcotest.(check bool) "fires just above it" true (fires_at (Float.succ p));
  (* a CNOT on an unrecorded coupling is scored at the worst recorded
     rate (0.3), not the other one (0.1) *)
  let device =
    Device.with_calibration (Topologies.linear 4)
      (Calibration.create ~single_qubit_error:0.0 [ (0, 1, 0.1); (1, 2, 0.3) ])
  in
  let gates = [ Gate.Cnot (2, 3) ] in
  let worst =
    Success.of_circuit ~unrecorded:0.3
      (Option.get device.Device.calibration)
      (Circuit.of_gates 4 gates)
  in
  Alcotest.(check (float 1e-12)) "scored at 0.3" 0.7 worst;
  let fires_at threshold =
    List.mem "QL008"
      (rule_ids (lint ~device ~min_success_prob:threshold ~role:Lint.Compiled ~n:4 gates))
  in
  Alcotest.(check bool) "unrecorded silent at the worst rate" false (fires_at worst);
  Alcotest.(check bool) "unrecorded fires just above it" true
    (fires_at (Float.succ worst));
  Alcotest.(check bool) "not scored at the best rate" true (fires_at 0.8);
  (* a snapshot whose every recorded rate is 0 charges an unrecorded
     coupling the 0.5 ceiling, as VIC's router does (weighted distance
     1 / 0.5^2 = 4), not the 0.0 it records *)
  let device =
    Device.with_calibration (Topologies.linear 3)
      (Calibration.create [ (0, 1, 0.0) ])
  in
  Alcotest.(check (float 1e-12)) "router charges 0.5" 4.0
    (Qaoa_util.Float_matrix.get
       (Qaoa_hardware.Profile.weighted_distances device)
       1 2);
  Alcotest.(check bool) "all-zero snapshot fires at 0.9" true
    (List.mem "QL008"
       (rule_ids
          (lint ~device ~min_success_prob:0.9 ~role:Lint.Compiled ~n:3
             [ Gate.Cnot (1, 2) ])))

let test_ql009_critical_swap () =
  let fires =
    lint ~role:Lint.Compiled ~n:2
      [ Gate.Swap (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "zero-slack swap fires" true
    (List.mem "QL009" (rule_ids fires));
  (* a longer parallel chain on qubit 2 gives the swap slack *)
  let silent =
    lint ~role:Lint.Compiled ~n:3
      [
        Gate.H 2; Gate.H 2; Gate.H 2;
        Gate.Swap (0, 1); Gate.Measure 0; Gate.Measure 1;
      ]
  in
  Alcotest.(check bool) "slackful swap silent" false
    (List.mem "QL009" (rule_ids silent))

let test_ql010_missed_packing () =
  (* the two cphases commute yet the as-given schedule parks them 3
     idle layers apart on qubit 0 *)
  let fires =
    lint ~role:Lint.Logical ~n:3
      [
        Gate.Cphase (0, 1, 0.3);
        Gate.H 2; Gate.H 2; Gate.H 2; Gate.H 2;
        Gate.Cphase (0, 2, 0.4);
      ]
  in
  Alcotest.(check bool) "gap of 3 fires" true
    (List.mem "QL010" (rule_ids fires));
  let silent =
    lint ~role:Lint.Logical ~n:3
      [
        Gate.Cphase (0, 1, 0.3);
        Gate.H 2; Gate.H 2;
        Gate.Cphase (0, 2, 0.4);
      ]
  in
  Alcotest.(check bool) "small gap silent" false
    (List.mem "QL010" (rule_ids silent))

let test_ql011_measure_delay () =
  (* the barrier fences the measurement 5 idle layers past qubit 0's
     last gate *)
  let fires =
    lint ~role:Lint.Logical ~n:2
      [
        Gate.H 0;
        Gate.H 1; Gate.H 1; Gate.H 1; Gate.H 1; Gate.H 1; Gate.H 1;
        Gate.Barrier;
        Gate.Measure 0;
      ]
  in
  Alcotest.(check bool) "idle wire fires" true
    (List.mem "QL011" (rule_ids fires));
  let silent =
    lint ~role:Lint.Logical ~n:2
      [
        Gate.H 0;
        Gate.H 1; Gate.H 1; Gate.H 1;
        Gate.Barrier;
        Gate.Measure 0;
      ]
  in
  Alcotest.(check bool) "short idle silent" false
    (List.mem "QL011" (rule_ids silent))

let test_ql012_commuting_redundancy () =
  let fires =
    lint ~role:Lint.Logical ~n:2
      [ Gate.Cnot (0, 1); Gate.Rz (0, 0.5); Gate.Cnot (0, 1) ]
  in
  (match List.find_opt (fun f -> f.Lint.rule = "QL012") fires with
  | Some f ->
    Alcotest.(check (option (pair int int))) "span" (Some (0, 2))
      f.Lint.gate_span
  | None -> Alcotest.fail "expected QL012");
  (* plain-adjacent pairs stay QL005's business *)
  Alcotest.(check bool) "adjacent pair is not QL012" false
    (List.mem "QL012"
       (rule_ids (lint ~role:Lint.Logical ~n:2 [ Gate.H 0; Gate.H 0 ])));
  (* an H wall blocks commuting traversal: neither notion sees a pair *)
  let silent =
    lint ~role:Lint.Logical ~n:2
      [ Gate.Cnot (0, 1); Gate.H 0; Gate.Cnot (0, 1) ]
  in
  Alcotest.(check bool) "blocked silent" false
    (List.mem "QL012" (rule_ids silent))

let test_ql013_depth_above_bound () =
  (* an all-diagonal circuit whose as-given order wastes depth the
     commutation DAG can see; the budget factor is set empirically
     around the true waste ratio so the test tracks the analysis, not a
     hand-computed constant *)
  let gates =
    [
      Gate.Rz (0, 0.1); Gate.Cphase (0, 1, 0.3); Gate.Rz (1, 0.2);
      Gate.Cphase (1, 2, 0.4); Gate.Rz (2, 0.3);
    ]
  in
  let s = Dataflow.analyze (Decompose.circuit (Circuit.of_gates 3 gates)) in
  let ratio =
    float_of_int s.Dataflow.measured_depth
    /. float_of_int s.Dataflow.lower_bound
  in
  Alcotest.(check bool) "the circuit wastes depth" true (ratio > 1.1);
  let fires =
    lint ~lower_bound_factor:(ratio *. 0.9) ~role:Lint.Logical ~n:3 gates
  in
  Alcotest.(check bool) "budget below the ratio fires" true
    (List.mem "QL013" (rule_ids fires));
  let silent =
    lint ~lower_bound_factor:(ratio *. 1.1) ~role:Lint.Logical ~n:3 gates
  in
  Alcotest.(check bool) "budget above the ratio silent" false
    (List.mem "QL013" (rule_ids silent));
  let absent = lint ~role:Lint.Logical ~n:3 gates in
  Alcotest.(check bool) "no budget, no rule" false
    (List.mem "QL013" (rule_ids absent))

(* --- commutation DAG and dataflow ---------------------------------- *)

let test_commute_transitive_reduction () =
  let dag =
    Commute.build (Circuit.of_gates 1 [ Gate.H 0; Gate.H 0; Gate.H 0 ])
  in
  Alcotest.(check (list (pair int int)))
    "chain edges only" [ (0, 1); (1, 2) ] (Commute.edges dag);
  Alcotest.(check bool) "0 reaches 2 transitively" true
    (Commute.reachable dag 0 2);
  Alcotest.(check bool) "never backwards" false (Commute.reachable dag 2 0)

let test_commute_cost_layer_edge_free () =
  (* a 4-cycle's cost layer: all cphases commute pairwise, so the DAG
     has no edges and the lower bound is the busy bound of 2, not the
     as-given depth of 4 *)
  let c =
    Circuit.of_gates 4
      (List.map
         (fun (a, b) -> Gate.Cphase (a, b, 0.5))
         [ (0, 1); (1, 2); (2, 3); (3, 0) ])
  in
  let dag = Commute.build c in
  Alcotest.(check (list (pair int int))) "no edges" [] (Commute.edges dag);
  let s = Dataflow.analyze c in
  Alcotest.(check int) "critical path" 1 s.Dataflow.critical_path;
  Alcotest.(check int) "busy bound" 2 s.Dataflow.busy_bound;
  Alcotest.(check int) "lower bound" 2 s.Dataflow.lower_bound;
  Alcotest.(check int) "greedy achieves the bound" 2 s.Dataflow.asap_depth;
  Alcotest.(check int) "as-given order wastes" 4 s.Dataflow.measured_depth

let test_dataflow_slack_and_critical () =
  let df =
    Dataflow.of_circuit (Circuit.of_gates 2 [ Gate.H 0; Gate.H 0; Gate.H 1 ])
  in
  Alcotest.(check int) "h1 slack" 1 (Dataflow.slack df 2);
  Alcotest.(check int) "chain slack" 0 (Dataflow.slack df 0);
  Alcotest.(check bool) "chain critical" true (Dataflow.critical df 0);
  Alcotest.(check bool) "h1 not critical" false (Dataflow.critical df 2);
  Alcotest.(check bool) "critical edge" true (Dataflow.critical_edge df 0 1);
  let s = Dataflow.summary df in
  Alcotest.(check int) "total slack" 1 s.Dataflow.total_slack

let test_circuit_of_order_validation () =
  let dag =
    Commute.build (Circuit.of_gates 2 [ Gate.H 0; Gate.H 0; Gate.H 1 ])
  in
  (* h1 commutes with everything: any position is a valid extension *)
  let r = Commute.circuit_of_order dag [ 2; 0; 1 ] in
  Alcotest.(check int) "length preserved" 3 (Circuit.length r);
  Alcotest.check_raises "dependency violation rejected"
    (Invalid_argument
       "Commute.circuit_of_order: order places gate 1 before its dependency 0")
    (fun () -> ignore (Commute.circuit_of_order dag [ 1; 0; 2 ]));
  Alcotest.check_raises "non-permutation rejected"
    (Invalid_argument "Commute.circuit_of_order: not a permutation of node ids")
    (fun () -> ignore (Commute.circuit_of_order dag [ 0; 0; 2 ]))

(* --- qcheck: schedule-validity oracle ------------------------------ *)

(* Any topological order of the commutation DAG must denote the same
   unitary: checked by the phase-polynomial canonicalizer on every
   draw, and cross-checked against the statevector (the circuits are
   <= 10 qubits by construction). *)
let prop_reorder_oracle =
  QCheck.Test.make
    ~name:"random linear extensions are phase-poly and statevector equal"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = random_linear rng n 25 in
      let dag = Commute.build c in
      let order = Commute.random_linear_extension rng dag in
      let r = Commute.circuit_of_order dag order in
      (match Phase_poly.equal_up_to_global_phase c r with
      | Phase_poly.Equivalent -> true
      | v ->
        QCheck.Test.fail_reportf "reorder not equivalent: %s"
          (Phase_poly.verdict_to_string v))
      && statevector_equal rng c r)

(* The depth chain the module documents, on circuits with measures and
   a barrier fence thrown in. *)
let prop_lower_bound_chain =
  QCheck.Test.make
    ~name:"lower_bound <= asap_depth <= measured depth" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let base = random_linear rng n 30 in
      let c =
        Circuit.of_gates n
          (Circuit.gates base
          @ (Gate.Barrier :: List.init n (fun q -> Gate.Measure q)))
      in
      let s = Dataflow.analyze c in
      s.Dataflow.lower_bound <= s.Dataflow.asap_depth
      && s.Dataflow.asap_depth <= s.Dataflow.measured_depth
      && s.Dataflow.measured_depth = Layering.depth c)

(* 20-qubit ER(0.5) on calibrated tokyo: every one of the 7 policies
   produces an artifact whose measured depth respects the
   policy-independent commutation lower bound. *)
let test_20q_static_bound_all_policies () =
  let device = Differential.device_of_topology "tokyo" in
  let rng = Rng.create 21 in
  let graph = Generators.erdos_renyi rng ~n:20 ~p:0.5 in
  let problem = Problem.of_maxcut graph in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  List.iter
    (fun strategy ->
      let options =
        { Compile.default_options with seed = 21; analyze = true }
      in
      let r = Compile.compile ~options ~strategy device problem params in
      let name = Compile.strategy_name strategy in
      match r.Compile.static with
      | None -> Alcotest.fail (name ^ ": analyze requested, no static record")
      | Some s ->
        Alcotest.(check bool) (name ^ ": positive bound") true
          (s.Dataflow.lower_bound > 0);
        Alcotest.(check bool) (name ^ ": lower bound <= depth") true
          (s.Dataflow.lower_bound <= r.Compile.metrics.Metrics.depth);
        Alcotest.(check int) (name ^ ": measured = metrics depth")
          r.Compile.metrics.Metrics.depth s.Dataflow.measured_depth;
        Alcotest.(check bool) (name ^ ": analyze phase recorded") true
          (List.exists
             (fun pt -> pt.Compile.phase = "analyze")
             r.Compile.phase_times))
    Differential.default_strategies

let test_clean_compiled_circuit_is_quiet () =
  (* a healthy compiled-and-optimized circuit never reports an ERROR *)
  let device = Differential.device_of_topology "melbourne" in
  let rng = Rng.create 9 in
  let graph = Generators.erdos_renyi rng ~n:8 ~p:0.4 in
  let problem = Problem.of_maxcut graph in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  let options = { Compile.default_options with seed = 9; lint = true } in
  let r =
    Compile.compile ~options ~strategy:(Compile.Ic None) device problem params
  in
  Alcotest.(check int) "no ERROR findings" 0
    (Lint.count Lint.Error r.Compile.lint_findings);
  Alcotest.(check bool) "lint phase recorded" true
    (List.exists (fun pt -> pt.Compile.phase = "lint") r.Compile.phase_times);
  (* lint off by default: no findings, no phase *)
  let r0 =
    Compile.compile
      ~options:{ Compile.default_options with seed = 9 }
      ~strategy:(Compile.Ic None) device problem params
  in
  Alcotest.(check (list string)) "lint off: no findings" []
    (rule_ids r0.Compile.lint_findings);
  Alcotest.(check bool) "lint off: no phase" false
    (List.exists (fun pt -> pt.Compile.phase = "lint") r0.Compile.phase_times)

(* --- exit codes, registry, reporters ------------------------------- *)

let finding rule severity =
  {
    Lint.rule;
    severity;
    message = "m";
    gate_span = Some (1, 2);
    fix_hint = None;
  }

let test_exit_codes () =
  Alcotest.(check int) "clean" 0 (Lint.exit_code []);
  Alcotest.(check int) "info only" 0 (Lint.exit_code [ finding "a" Lint.Info ]);
  Alcotest.(check int) "warn not denied" 0
    (Lint.exit_code [ finding "a" Lint.Warn ]);
  Alcotest.(check int) "warn denied" 1
    (Lint.exit_code ~deny:Lint.Warn [ finding "a" Lint.Warn ]);
  Alcotest.(check int) "info denied at info" 1
    (Lint.exit_code ~deny:Lint.Info [ finding "a" Lint.Info ]);
  Alcotest.(check int) "error always 2" 2
    (Lint.exit_code ~deny:Lint.Warn
       [ finding "a" Lint.Warn; finding "b" Lint.Error ])

let test_severity_order_and_names () =
  Alcotest.(check bool) "info < warn" true
    (Lint.severity_compare Lint.Info Lint.Warn < 0);
  Alcotest.(check bool) "warn < error" true
    (Lint.severity_compare Lint.Warn Lint.Error < 0);
  List.iter
    (fun s ->
      Alcotest.(check bool) "name round-trips" true
        (Lint.severity_of_string (Lint.severity_name s) = Some s))
    [ Lint.Info; Lint.Warn; Lint.Error ];
  Alcotest.(check bool) "max severity" true
    (Lint.max_severity [ finding "a" Lint.Info; finding "b" Lint.Error ]
    = Some Lint.Error);
  Alcotest.(check bool) "empty max" true (Lint.max_severity [] = None)

let test_json_round_trip () =
  let findings =
    [
      finding "QL001" Lint.Error;
      { (finding "QL007" Lint.Warn) with Lint.gate_span = None };
      { (finding "QL004" Lint.Info) with Lint.fix_hint = Some "shrink it" };
    ]
  in
  let json = Lint.report_to_json findings in
  (* through the actual serializer and parser, as the CI gate does *)
  match Lint.report_of_json (Json.of_string (Json.to_string json)) with
  | Ok parsed -> Alcotest.(check bool) "identical" true (parsed = findings)
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)

let test_text_report_shape () =
  let text =
    Lint.to_text
      [
        { (finding "QL001" Lint.Error) with Lint.fix_hint = Some "reroute" };
        finding "QL004" Lint.Info;
      ]
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("mentions " ^ sub) true
        (contains_substring ~sub text))
    [ "ERROR"; "QL001"; "fix: reroute"; "1 error(s)"; "1 info(s)" ]

let suite =
  [
    ("phase-poly known identities", `Quick, test_known_identities);
    ("phase-poly segmentation shape", `Quick, test_segmentation_shape);
    ("dropped cphase named by segment", `Quick, test_dropped_cphase_named);
    ("skeleton mismatch is inconclusive", `Quick,
     test_skeleton_mismatch_inconclusive);
    QCheck_alcotest.to_alcotest prop_verdict_matches_statevector;
    ("20-qubit semantic verdict, all policies", `Quick,
     test_20q_semantic_verdict_all_policies);
    ("check options env override", `Quick, test_default_options_env_override);
    ("QL001 uncoupled pair", `Quick, test_ql001_uncoupled_pair);
    ("QL002 missing calibration", `Quick, test_ql002_missing_calibration);
    ("QL003 gate after measure", `Quick, test_ql003_gate_after_measure);
    ("QL004 idle qubit", `Quick, test_ql004_idle_qubit);
    ("QL005 redundant adjacent", `Quick, test_ql005_redundant_adjacent);
    ("QL006 swap sandwich", `Quick, test_ql006_swap_sandwich);
    ("QL007 depth budget", `Quick, test_ql007_depth_budget);
    ("QL008 success probability", `Quick, test_ql008_success_probability);
    ("QL009 critical swap", `Quick, test_ql009_critical_swap);
    ("QL010 missed packing", `Quick, test_ql010_missed_packing);
    ("QL011 measure delay", `Quick, test_ql011_measure_delay);
    ("QL012 commuting redundancy", `Quick, test_ql012_commuting_redundancy);
    ("QL013 depth above bound", `Quick, test_ql013_depth_above_bound);
    ("commute transitive reduction", `Quick, test_commute_transitive_reduction);
    ("commute cost layer edge-free", `Quick, test_commute_cost_layer_edge_free);
    ("dataflow slack and critical path", `Quick,
     test_dataflow_slack_and_critical);
    ("circuit_of_order validation", `Quick, test_circuit_of_order_validation);
    QCheck_alcotest.to_alcotest prop_reorder_oracle;
    QCheck_alcotest.to_alcotest prop_lower_bound_chain;
    ("20-qubit static bound, all policies", `Quick,
     test_20q_static_bound_all_policies);
    ("clean compile lints quiet", `Quick, test_clean_compiled_circuit_is_quiet);
    ("lint exit codes", `Quick, test_exit_codes);
    ("severity order and names", `Quick, test_severity_order_and_names);
    ("lint report JSON round-trip", `Quick, test_json_round_trip);
    ("lint text report shape", `Quick, test_text_report_shape);
  ]
