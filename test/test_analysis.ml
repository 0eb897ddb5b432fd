(* qaoa_analysis: the phase-polynomial canonicalizer (unit equivalences,
   corruption witnesses, qcheck cross-check against the statevector
   oracle) and the lint rule engine (each rule firing and silent, exit
   codes, JSON round-trip, reports pinned on real compiles), plus the
   large-register acceptance case: a 20-qubit compile gets a definite
   semantic verdict under every policy. *)

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
module Workload = Qaoa_experiments.Workload
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

(* A compiled circuit is linted against a device, a line of [n] qubits
   unless the case names one; a logical circuit is linted without. *)
let lint ?device ?max_depth ?min_success_prob ?lower_bound_factor ~role gates
    ~n =
  let device =
    match role with
    | `Logical ->
      assert (device = None);
      None
    | `Compiled -> Some (Option.value device ~default:(Topologies.linear n))
  in
  Lint.run
    (Lint.context ?device ?max_depth ?min_success_prob ?lower_bound_factor
       (Circuit.of_gates n gates))

let test_ql001_uncoupled_pair () =
  let device = Topologies.linear 3 in
  let fires =
    lint ~device ~role:`Compiled ~n:3
      [ Gate.Cnot (0, 2); Gate.Measure 0; Gate.Measure 2 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL001" (rule_ids fires));
  let silent =
    lint ~device ~role:`Compiled ~n:3
      [ Gate.Cnot (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "silent" false (List.mem "QL001" (rule_ids silent));
  (* logical circuits are never judged against a coupling graph *)
  let logical = lint ~role:`Logical ~n:3 [ Gate.Cnot (0, 2) ] in
  Alcotest.(check bool) "no device, no coupling check" false
    (List.mem "QL001" (rule_ids logical))

let test_ql002_missing_calibration () =
  let device =
    Device.with_calibration (Topologies.linear 3)
      (Calibration.create [ (0, 1, 0.01) ])
  in
  let fires =
    lint ~device ~role:`Compiled ~n:3 [ Gate.Cnot (1, 2) ]
  in
  Alcotest.(check (list string)) "fires once" [ "QL002" ] (rule_ids fires);
  let silent = lint ~device ~role:`Compiled ~n:3 [ Gate.Cnot (0, 1) ] in
  Alcotest.(check bool) "calibrated edge silent" false
    (List.mem "QL002" (rule_ids silent));
  (* a device with no snapshot at all: rule skips (no data to lint) *)
  let bare = lint ~device:(Topologies.linear 3) ~role:`Compiled ~n:3
      [ Gate.Cnot (1, 2) ]
  in
  Alcotest.(check bool) "no snapshot, no finding" false
    (List.mem "QL002" (rule_ids bare))

let test_ql003_gate_after_measure () =
  let fires =
    lint ~role:`Logical ~n:2 [ Gate.Measure 0; Gate.H 0 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL003" (rule_ids fires));
  let silent =
    lint ~role:`Logical ~n:2 [ Gate.H 0; Gate.Measure 0; Gate.H 1 ]
  in
  Alcotest.(check bool) "silent" false (List.mem "QL003" (rule_ids silent))

let test_ql004_idle_qubit () =
  let fires = lint ~role:`Logical ~n:3 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  Alcotest.(check bool) "fires for qubit 2" true
    (List.exists
       (fun f ->
         f.Lint.rule = "QL004" && contains_substring ~sub:"qubit 2" f.Lint.message)
       fires);
  (* compiled circuits legitimately leave physical qubits idle *)
  let compiled = lint ~role:`Compiled ~n:3 [ Gate.H 0 ] in
  Alcotest.(check bool) "compiled circuit exempt" false
    (List.mem "QL004" (rule_ids compiled))

let test_ql005_redundant_adjacent () =
  let fires = lint ~role:`Logical ~n:2 [ Gate.H 0; Gate.H 0 ] in
  (match List.find_opt (fun f -> f.Lint.rule = "QL005") fires with
  | Some f -> Alcotest.(check (option (pair int int))) "span" (Some (0, 1)) f.Lint.gate_span
  | None -> Alcotest.fail "expected QL005");
  let silent =
    lint ~role:`Logical ~n:2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 0 ]
  in
  Alcotest.(check bool) "blocked pair silent" false
    (List.mem "QL005" (rule_ids silent))

let test_ql006_swap_sandwich () =
  let fires =
    lint ~role:`Compiled ~n:2
      [ Gate.H 0; Gate.Swap (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "fires" true (List.mem "QL006" (rule_ids fires));
  let silent =
    lint ~role:`Compiled ~n:2
      [ Gate.Swap (0, 1); Gate.H 0; Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "live wire silent" false
    (List.mem "QL006" (rule_ids silent))

let test_ql007_depth_budget () =
  let deep = [ Gate.H 0; Gate.H 0; Gate.H 0; Gate.H 0 ] in
  let fires = lint ~max_depth:2 ~role:`Logical ~n:1 deep in
  Alcotest.(check bool) "fires" true (List.mem "QL007" (rule_ids fires));
  let silent = lint ~max_depth:100 ~role:`Logical ~n:1 deep in
  Alcotest.(check bool) "big budget silent" false
    (List.mem "QL007" (rule_ids silent));
  let absent = lint ~role:`Logical ~n:1 deep in
  Alcotest.(check bool) "no budget, no rule" false
    (List.mem "QL007" (rule_ids absent))

let test_ql008_success_probability () =
  let device =
    Device.with_calibration (Topologies.linear 3)
      (Calibration.uniform ~cnot_error:0.1 [ (0, 1); (1, 2) ])
  in
  let gates = [ Gate.Cnot (0, 1); Gate.Cnot (1, 2) ] in
  let fires =
    lint ~device ~min_success_prob:0.9 ~role:`Compiled ~n:3 gates
  in
  Alcotest.(check bool) "0.81 < 0.9 fires" true
    (List.mem "QL008" (rule_ids fires));
  let silent =
    lint ~device ~min_success_prob:0.5 ~role:`Compiled ~n:3 gates
  in
  Alcotest.(check bool) "0.81 >= 0.5 silent" false
    (List.mem "QL008" (rule_ids silent));
  (* the rule scores exactly Success's product: silent at it, firing
     one float above it *)
  let cal = Option.get device.Device.calibration in
  let p = Success.of_circuit cal (Circuit.of_gates 3 gates) in
  let fires_at threshold =
    List.mem "QL008"
      (rule_ids (lint ~device ~min_success_prob:threshold ~role:`Compiled ~n:3 gates))
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
      (rule_ids (lint ~device ~min_success_prob:threshold ~role:`Compiled ~n:4 gates))
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
          (lint ~device ~min_success_prob:0.9 ~role:`Compiled ~n:3
             [ Gate.Cnot (1, 2) ])))

let test_ql009_critical_swap () =
  let fires =
    lint ~role:`Compiled ~n:2
      [ Gate.Swap (0, 1); Gate.Measure 0; Gate.Measure 1 ]
  in
  Alcotest.(check bool) "zero-slack swap fires" true
    (List.mem "QL009" (rule_ids fires));
  (* a longer parallel chain on qubit 2 gives the swap slack *)
  let silent =
    lint ~role:`Compiled ~n:3
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
    lint ~role:`Logical ~n:3
      [
        Gate.Cphase (0, 1, 0.3);
        Gate.H 2; Gate.H 2; Gate.H 2; Gate.H 2;
        Gate.Cphase (0, 2, 0.4);
      ]
  in
  Alcotest.(check bool) "gap of 3 fires" true
    (List.mem "QL010" (rule_ids fires));
  let silent =
    lint ~role:`Logical ~n:3
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
    lint ~role:`Logical ~n:2
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
    lint ~role:`Logical ~n:2
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
    lint ~role:`Logical ~n:2
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
       (rule_ids (lint ~role:`Logical ~n:2 [ Gate.H 0; Gate.H 0 ])));
  (* an H wall blocks commuting traversal: neither notion sees a pair *)
  let silent =
    lint ~role:`Logical ~n:2
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
    lint ~lower_bound_factor:(ratio *. 0.9) ~role:`Logical ~n:3 gates
  in
  Alcotest.(check bool) "budget below the ratio fires" true
    (List.mem "QL013" (rule_ids fires));
  let silent =
    lint ~lower_bound_factor:(ratio *. 1.1) ~role:`Logical ~n:3 gates
  in
  Alcotest.(check bool) "budget above the ratio silent" false
    (List.mem "QL013" (rule_ids silent));
  let absent = lint ~role:`Logical ~n:3 gates in
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

(* --- commutation DAG build vs the pairwise reference ----------------- *)

(* The pairwise construction with a fresh [Hashtbl] of reached gates
   per gate [j]: the reference [Commute.build] must match edge for
   edge. *)
let reference_edges circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let n = Array.length gates in
  let depends i j =
    match (gates.(i), gates.(j)) with
    | Gate.Barrier, _ | _, Gate.Barrier -> true
    | a, b -> not (Gate.commutes a b)
  in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  for j = 0 to n - 1 do
    let reached = Hashtbl.create 8 in
    let rec mark i =
      if not (Hashtbl.mem reached i) then begin
        Hashtbl.replace reached i ();
        List.iter mark preds.(i)
      end
    in
    for i = j - 1 downto 0 do
      if (not (Hashtbl.mem reached i)) && depends i j then begin
        preds.(j) <- i :: preds.(j);
        succs.(i) <- j :: succs.(i);
        mark i
      end
    done
  done;
  List.concat
    (List.init n (fun i -> List.rev_map (fun j -> (i, j)) succs.(i)))

(* [random_linear] with H, Rx, Measure and Barrier gates spliced in at
   random positions, so the Barrier fence and the non-unitary paths of
   the commutation relation run too. *)
let random_spliced rng n len =
  Circuit.of_gates n
    (List.concat_map
       (fun g ->
         if Rng.int rng 4 > 0 then [ g ]
         else
           let q = Rng.int rng n in
           (match Rng.int rng 4 with
           | 0 -> Gate.H q
           | 1 -> Gate.Rx (q, Rng.float rng 6.2)
           | 2 -> Gate.Measure q
           | _ -> Gate.Barrier)
           :: [ g ])
       (Circuit.gates (random_linear rng n len)))

(* 64-200 gates, so the ancestor bitsets of [Commute] span several
   words, with Barriers first, last and back to back around the
   spliced body (which brings Barriers and Measures of its own). *)
let random_long rng n =
  let len = 64 + Rng.int rng 137 in
  let body =
    List.filteri (fun i _ -> i < len - 4)
      (Circuit.gates (random_spliced rng n len))
  in
  let cut = Rng.int rng (len - 3) in
  Circuit.of_gates n
    ((Gate.Barrier :: List.filteri (fun i _ -> i < cut) body)
    @ (Gate.Barrier :: Gate.Barrier :: List.filteri (fun i _ -> i >= cut) body)
    @ [ Gate.Barrier ])

(* QCHECK_LONG=1 runs the DAG properties [long_factor] times over. *)
let long_factor = 50

let prop_build_matches_reference =
  QCheck.Test.make ~name:"Commute.build edges == pairwise reference"
    ~count:200 ~long_factor
    QCheck.(pair (int_bound 1_000_000) (int_bound 8))
    (fun (seed, k) ->
      (* n = k + 2, so shrinking stays within the 2..10 qubits
         [random_linear] needs *)
      let rng = Rng.create seed in
      List.for_all
        (fun c -> Commute.edges (Commute.build c) = reference_edges c)
        [ random_spliced rng (k + 2) 40; random_long rng (k + 2) ])

(* The ASAP depth as [Layering] computed it before gates were placed by
   pattern: a fold over [Gate.qubits]. *)
let reference_depth circuit =
  let free_at = Array.make (Circuit.num_qubits circuit) 0 in
  let fence = ref 0 and depth = ref 0 in
  List.iter
    (fun g ->
      match g with
      | Gate.Barrier -> fence := !depth
      | _ ->
        let qs = Gate.qubits g in
        let layer = List.fold_left (fun acc q -> max acc free_at.(q)) !fence qs in
        List.iter (fun q -> free_at.(q) <- layer + 1) qs;
        depth := max !depth (layer + 1))
    (Circuit.gates circuit);
  !depth

(* [Metrics.of_circuit] walks the circuit once, lowering and placing as
   it goes; it must count and schedule exactly the decomposed circuit. *)
let prop_metrics_one_pass =
  QCheck.Test.make ~name:"Metrics.of_circuit == decompose + depth + counts"
    ~count:300 ~long_factor
    QCheck.(pair (int_bound 1_000_000) (int_bound 8))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      List.for_all
        (fun c ->
          let d = Decompose.circuit c in
          let count p = List.length (List.filter p (Circuit.gates d)) in
          let expected =
            {
              Metrics.depth = Layering.depth d;
              gate_count = count Gate.is_unitary;
              two_qubit_count = count Gate.is_two_qubit;
              measure_count = count (function Gate.Measure _ -> true | _ -> false);
            }
          in
          Metrics.of_circuit c = expected && Layering.depth d = reference_depth d)
        [ random_spliced rng (k + 2) (Rng.int rng 60); random_long rng (k + 2) ])

(* [reach.(i).(j)]: a path i -> ... -> j over [reference_edges]. *)
let reference_reach circuit =
  let n = Circuit.length circuit in
  let reach = Array.make_matrix n n false in
  let preds = Array.make n [] in
  List.iter (fun (i, j) -> preds.(j) <- i :: preds.(j)) (reference_edges circuit);
  for j = 0 to n - 1 do
    List.iter
      (fun p ->
        reach.(p).(j) <- true;
        for i = 0 to p - 1 do
          if reach.(i).(p) then reach.(i).(j) <- true
        done)
      preds.(j)
  done;
  reach

let prop_reachable_matches_reference =
  QCheck.Test.make ~name:"Commute.reachable == reference reachability"
    ~count:100 ~long_factor
    QCheck.(pair (int_bound 1_000_000) (int_bound 8))
    (fun (seed, k) ->
      let c = random_long (Rng.create seed) (k + 2) in
      let dag = Commute.build c in
      let reach = reference_reach c in
      let n = Circuit.length c in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Commute.reachable dag i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

(* The IC compiles bench/main.ml times: tokyo ER(0.5) n = 20 and the
   6x6 grid, 15-regular n = 36, each with its device, its logical
   circuit and the routed circuit lint sees. *)
let ic_sources =
  lazy
    (List.map
       (fun (name, device, kind, n, seed) ->
         let problem =
           List.hd (Workload.problems (Rng.create seed) kind ~n ~count:1)
         in
         let params = Workload.default_params in
         ( name,
           device,
           Ansatz.circuit ~measure:true problem params,
           (Compile.compile ~strategy:(Compile.Ic None) device problem params)
             .Compile.circuit ))
       [
         ("tokyo", Topologies.ibmq_20_tokyo (), Workload.Erdos_renyi 0.5, 20, 101);
         ("grid36", Topologies.grid_6x6 (), Workload.Regular 15, 36, 104);
       ])

(* The routed circuit and the decomposed circuit analyze sees. *)
let ic_compiles =
  lazy
    (List.concat_map
       (fun (name, _, _, routed) ->
         [
           (name ^ " routed", routed);
           (name ^ " decomposed", Decompose.circuit routed);
         ])
       (Lazy.force ic_sources))

let test_build_matches_reference_on_compiles () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check (list (pair int int)))
        (name ^ " edges") (reference_edges c)
        (Commute.edges (Commute.build c)))
    (Lazy.force ic_compiles)

(* MD5 of [Dataflow.to_json] and [Dataflow.to_dot] on the same compiles,
   recorded with the pairwise-scan build: the exports must not move by
   a byte. *)
let test_dataflow_exports_pinned_on_compiles () =
  let digest s = Digest.to_hex (Digest.string s) in
  List.iter2
    (fun (name, c) (json, dot) ->
      let df = Dataflow.of_circuit c in
      Alcotest.(check string)
        (name ^ " to_json") json
        (digest (Json.to_string (Dataflow.to_json df)));
      Alcotest.(check string) (name ^ " to_dot") dot (digest (Dataflow.to_dot df)))
    (Lazy.force ic_compiles)
    [
      ("149549549fe114f52e0b697daec65e36", "b75b9981110dced592a82501229e851d");
      ("ef4c88020993007729afd39c49a3a06f", "c41355a78acbc73e6d42c3684220a8b6");
      ("8c12394aad385e49b859f328d43561f7", "fba5651f136e4ae08299b6857be6dc5b");
      ("b61ff49a1dacf6321e7f7ca60b7de81d", "6c3cccc4262fa5b4fe53df2e0a527dd5");
    ]

(* MD5 of [Lint.to_text] and of [Lint.report_to_json] on the same
   compiles: the routed and decomposed circuits linted against their
   device, and the logical circuit linted without one, every threshold
   set.  Recorded before the rule table held each rule's id, severity
   and fix hint once: the reports must not move by a byte. *)
let test_lint_reports_pinned_on_compiles () =
  let digest s = Digest.to_hex (Digest.string s) in
  let lint ?device c =
    Lint.run
      (Lint.context ?device ~max_depth:40 ~min_success_prob:0.5
         ~lower_bound_factor:0.9 c)
  in
  let cases =
    List.concat_map
      (fun (name, device, logical, routed) ->
        [
          (name ^ " routed", lint ~device routed);
          (name ^ " decomposed", lint ~device (Decompose.circuit routed));
          (name ^ " logical", lint logical);
        ])
      (Lazy.force ic_sources)
  in
  List.iter2
    (fun (name, findings) (text, json) ->
      Alcotest.(check string)
        (name ^ " to_text") text
        (digest (Lint.to_text findings));
      Alcotest.(check string)
        (name ^ " report_to_json") json
        (digest (Json.to_string (Lint.report_to_json findings))))
    cases
    [
      ("9e45a965637b03d49d425d7ec86f2650", "a5e4a1ef65ce26b301867ce6a65d2601");
      ("999aa5306ed21d4ab4d4d6c6c0dd1e94", "b53c0d7fdd61d436d930a7b451204697");
      ("c2b4633161dbb1ce5545462d487fe429", "609986e153bdbf986940f2937a67ab6d");
      ("8bdc704bee456a01eb2d0cc4661ec856", "62fe436f2d4c7c31b39e38368488ea6d");
      ("a1dc09da29769562521b15a78c74c40a", "9732f10c15a8d971433d5367b438431a");
      ("d8a95341617c12607403b89020da5f49", "eba8a947f4c34bd8294016d37628aa4e");
    ]

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
  (* through the actual serializer and parser and back *)
  let text = Json.to_string (Lint.report_to_json findings) in
  Alcotest.(check string) "identical" text (Json.to_string (Json.of_string text))

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
    QCheck_alcotest.to_alcotest prop_build_matches_reference;
    QCheck_alcotest.to_alcotest prop_reachable_matches_reference;
    QCheck_alcotest.to_alcotest prop_metrics_one_pass;
    ("commute build matches reference on compiles", `Quick,
     test_build_matches_reference_on_compiles);
    ("dataflow exports pinned on compiles", `Quick,
     test_dataflow_exports_pinned_on_compiles);
    ("lint reports pinned on compiles", `Quick,
     test_lint_reports_pinned_on_compiles);
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
