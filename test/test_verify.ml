(* Translation validation (qaoa_verify): the checker accepts every
   healthy compile across policies and topologies, rejects deliberately
   corrupted circuits with a diagnostic naming the offending gate, and
   the differential fuzzer's cross-checks (verifier vs Compliance vs
   Metrics) agree on seeded corpora.  Plus the satellite properties:
   Floyd-Warshall hop distances vs BFS, and OpenQASM round-trip gate
   counts. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Metrics = Qaoa_circuit.Metrics
module Qasm = Qaoa_circuit.Qasm
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Profile = Qaoa_hardware.Profile
module Paths = Qaoa_graph.Paths
module Mapping = Qaoa_backend.Mapping
module Compliance = Qaoa_backend.Compliance
module Check = Qaoa_verify.Check
module Fuzz = Qaoa_verify.Fuzz
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Differential = Qaoa_experiments.Differential
module Workload = Qaoa_experiments.Workload
module Statevector = Qaoa_sim.Statevector
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let compile_one ?(topology = "tokyo") ?(nodes = 8) ?(seed = 3)
    ?(strategy = Compile.Ic None) () =
  let device = Differential.device_of_topology topology in
  let rng = Rng.create seed in
  let problem =
    List.hd (Workload.problems rng (Workload.Regular 3) ~n:nodes ~count:1)
  in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  let options = { Compile.default_options with seed } in
  let r = Compile.compile ~options ~strategy device problem params in
  let logical = Ansatz.circuit ~measure:true problem params in
  (device, problem, logical, r)

let validate_result ?swap_count device logical (r : Compile.result) circuit =
  let swap_count =
    match swap_count with Some c -> c | None -> r.Compile.swap_count
  in
  Check.validate ~device ~initial:r.Compile.initial_mapping
    ~final:r.Compile.final_mapping ~swap_count ~logical circuit

(* --- healthy compiles validate cleanly ----------------------------- *)

let test_healthy_all_strategies () =
  List.iter
    (fun strategy ->
      let device, _, logical, r = compile_one ~strategy () in
      let report = validate_result device logical r r.Compile.circuit in
      Alcotest.(check bool)
        (Compile.strategy_name strategy ^ " validates")
        true (Check.ok report);
      match report.Check.semantic with
      | Check.Checked { num_qubits; method_ } ->
        Alcotest.(check int) "semantic on 8 qubits" 8 num_qubits;
        Alcotest.(check bool) "statevector oracle within the limit" true
          (method_ = Check.Statevector)
      | Check.Skipped why -> Alcotest.fail ("semantic skipped: " ^ why))
    Differential.default_strategies

(* Above the statevector limit the Auto oracle now falls back to the
   phase-polynomial canonicalizer instead of skipping; Statevector_only
   restores the old skip, and its reason names both the count and the
   limit. *)
let test_semantic_above_limit_uses_phase_poly () =
  let device, _, logical, r = compile_one ~nodes:10 () in
  let options d =
    { d with Check.max_semantic_qubits = 9 }
  in
  let validate oracle =
    Check.validate
      ~options:{ (options (Check.default_options ())) with Check.oracle }
      ~device ~initial:r.Compile.initial_mapping
      ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count
      ~logical r.Compile.circuit
  in
  let auto = validate Check.Auto in
  Alcotest.(check bool) "still ok" true (Check.ok auto);
  (match auto.Check.semantic with
  | Check.Checked { num_qubits; method_ = Check.Phase_polynomial } ->
    Alcotest.(check int) "checked on 10 qubits" 10 num_qubits
  | Check.Checked _ -> Alcotest.fail "expected the phase-polynomial oracle"
  | Check.Skipped why -> Alcotest.fail ("semantic skipped: " ^ why));
  let sv_only = validate Check.Statevector_only in
  Alcotest.(check bool) "still ok" true (Check.ok sv_only);
  match sv_only.Check.semantic with
  | Check.Skipped why ->
    Alcotest.(check bool) "reason names the limit" true
      (contains_substring ~sub:"10 qubits" why
      && contains_substring ~sub:"9-qubit" why)
  | Check.Checked _ -> Alcotest.fail "semantic should have been skipped"

(* --- corruption rejection ------------------------------------------ *)

let insert_at idx g gates =
  let rec go i = function
    | rest when i = idx -> g :: rest
    | x :: rest -> x :: go (i + 1) rest
    | [] -> [ g ]
  in
  go 0 gates

(* The acceptance-criterion case: a CNOT injected on an uncoupled
   physical pair must be rejected with a diagnostic naming the gate. *)
let test_wrong_pair_cnot_rejected () =
  let device, _, logical, r = compile_one () in
  (* tokyo qubits 0 and 19 are not coupled *)
  Alcotest.(check bool) "pair uncoupled" false (Device.coupled device 0 19);
  let idx = 5 in
  let gates = insert_at idx (Gate.Cnot (0, 19)) (Circuit.gates r.Compile.circuit) in
  let corrupted = Circuit.of_gates (Circuit.num_qubits r.Compile.circuit) gates in
  let report = validate_result device logical r corrupted in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  let names_gate =
    List.exists
      (function
        | Check.Uncoupled_pair { gate_index; _ } -> gate_index = idx
        | _ -> false)
      report.Check.issues
  in
  Alcotest.(check bool) "diagnostic names gate 5" true names_gate;
  (* and Compliance agrees on the same gate index *)
  let compliance_hits =
    List.map
      (fun v -> v.Compliance.gate_index)
      (Compliance.violations device corrupted)
  in
  Alcotest.(check (list int)) "compliance names the same gate" [ idx ]
    compliance_hits;
  (* the printed diagnostic carries the index *)
  let some_message =
    List.map Check.issue_to_string report.Check.issues |> String.concat "\n"
  in
  Alcotest.(check bool) "message mentions gate 5" true
    (contains_substring ~sub:"gate 5" some_message)

(* A coupled but wrong-pair CNOT is structurally compliant, yet the gate
   accounting names it: its logical pre-image is not a gate the ansatz
   owes. *)
let test_coupled_wrong_pair_rejected () =
  let device, _, logical, r = compile_one ~topology:"linear16" () in
  let gates = Circuit.gates r.Compile.circuit in
  (* insert before the trailing measures so no measured wire is touched *)
  let num_measures =
    List.length (List.filter (function Gate.Measure _ -> true | _ -> false) gates)
  in
  let idx = List.length gates - num_measures in
  (* pick a coupled physical pair where both wires host logical qubits
     under the final mapping (the live mapping just before the measures) *)
  let final = r.Compile.final_mapping in
  let p, q =
    List.find
      (fun (p, q) ->
        Mapping.logical_at final p <> None && Mapping.logical_at final q <> None)
      (Device.coupling_edges device)
  in
  let corrupted =
    Circuit.of_gates
      (Circuit.num_qubits r.Compile.circuit)
      (insert_at idx (Gate.Cnot (p, q)) gates)
  in
  Alcotest.(check bool) "still coupling-compliant" true
    (Compliance.is_compliant device corrupted);
  let report = validate_result device logical r corrupted in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  Alcotest.(check bool) "accounting names the gate" true
    (List.exists
       (function
         | Check.Unexpected_gate { gate_index; _ } -> gate_index = idx
         | _ -> false)
       report.Check.issues)

let test_dropped_gate_rejected () =
  let device, _, logical, r = compile_one () in
  let gates = Circuit.gates r.Compile.circuit in
  (* drop the last CPHASE: mapping replay is unaffected, accounting is *)
  let last_cphase =
    List.fold_left
      (fun (i, best) g ->
        (i + 1, match g with Gate.Cphase _ -> Some i | _ -> best))
      (0, None) gates
    |> snd |> Option.get
  in
  let corrupted =
    Circuit.of_gates
      (Circuit.num_qubits r.Compile.circuit)
      (List.filteri (fun i _ -> i <> last_cphase) gates)
  in
  let report = validate_result device logical r corrupted in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  Alcotest.(check bool) "missing gate reported" true
    (List.exists
       (function
         | Check.Missing_gates { gates = [ Gate.Cphase _ ] } -> true
         | _ -> false)
       report.Check.issues)

let test_swap_count_mismatch () =
  let device, _, logical, r = compile_one () in
  let report =
    validate_result ~swap_count:(r.Compile.swap_count + 1) device logical r
      r.Compile.circuit
  in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  Alcotest.(check bool) "swap count issue" true
    (List.exists
       (function
         | Check.Swap_count_mismatch { recorded; counted } ->
           recorded = r.Compile.swap_count + 1
           && counted = r.Compile.swap_count
         | _ -> false)
       report.Check.issues)

let test_final_mapping_mismatch () =
  (* find a seeded instance whose routing actually moves the mapping *)
  let device, _, logical, r =
    let rec search seed =
      if seed > 40 then Alcotest.fail "no seed produced swaps"
      else
        let (_, _, _, r) as case =
          compile_one ~topology:"linear16" ~strategy:Compile.Naive ~seed ()
        in
        if
          r.Compile.swap_count > 0
          && not (Mapping.equal r.Compile.initial_mapping r.Compile.final_mapping)
        then case
        else search (seed + 1)
    in
    search 1
  in
  (* lie about the final mapping: claim nothing moved *)
  let report =
    Check.validate ~device ~initial:r.Compile.initial_mapping
      ~final:r.Compile.initial_mapping ~swap_count:r.Compile.swap_count
      ~logical r.Compile.circuit
  in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  Alcotest.(check bool) "mapping issue reported" true
    (List.exists
       (function
         | Check.Final_mapping_mismatch _ | Check.Readout_mismatch _ -> true
         | _ -> false)
       report.Check.issues)

(* Reordering non-commuting gates preserves the gate multiset but not the
   state: only the semantic stage can catch it, and it names the first
   divergent layer. *)
let test_noncommuting_reorder_caught () =
  let device = Topologies.linear 3 in
  let mapping = Mapping.trivial ~num_logical:3 ~num_physical:3 in
  let logical =
    Circuit.of_gates 3 [ Gate.H 0; Gate.Cphase (0, 1, 1.2); Gate.H 2 ]
  in
  let reordered =
    Circuit.of_gates 3 [ Gate.Cphase (0, 1, 1.2); Gate.H 0; Gate.H 2 ]
  in
  let report =
    Check.validate ~device ~initial:mapping ~final:mapping ~swap_count:0
      ~logical reordered
  in
  Alcotest.(check bool) "rejected" false (Check.ok report);
  match report.Check.issues with
  | [ Check.State_mismatch { layer = Some _; distance; _ } ] ->
    Alcotest.(check bool) "distance visible" true (distance > 1e-3)
  | [ Check.State_mismatch { layer = None; distance; _ } ] ->
    Alcotest.(check bool) "distance visible" true (distance > 1e-3)
  | _ -> Alcotest.fail "expected exactly one state mismatch"

let test_swap_permutation_tracked () =
  (* a SWAP that relocates a logical qubit is fine as long as the final
     mapping records it *)
  let device = Topologies.linear 2 in
  let initial = Mapping.trivial ~num_logical:1 ~num_physical:2 in
  let final = Mapping.swap_physical initial 0 1 in
  let logical = Circuit.of_gates 1 [ Gate.H 0; Gate.Measure 0 ] in
  let compiled =
    Circuit.of_gates 2 [ Gate.H 0; Gate.Swap (0, 1); Gate.Measure 1 ]
  in
  let report =
    Check.validate ~device ~initial ~final ~swap_count:1 ~logical compiled
  in
  Alcotest.(check bool) "valid" true (Check.ok report);
  (* claiming the qubit never moved must be rejected *)
  let lying =
    Check.validate ~device ~initial ~final:initial ~swap_count:1 ~logical
      compiled
  in
  Alcotest.(check bool) "rejected when mapping lies" false (Check.ok lying)

(* --- the Compile ~verify flag -------------------------------------- *)

let test_compile_verify_flag () =
  let device = Differential.device_of_topology "melbourne" in
  let rng = Rng.create 11 in
  let problem =
    List.hd (Workload.problems rng (Workload.Regular 3) ~n:8 ~count:1)
  in
  let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
  List.iter
    (fun strategy ->
      let options = { Compile.default_options with seed = 11; verify = true } in
      let r = Compile.compile ~options ~strategy device problem params in
      Alcotest.(check bool)
        (Compile.strategy_name strategy ^ " has verify phase")
        true
        (List.exists (fun pt -> pt.Compile.phase = "verify") r.Compile.phase_times))
    Differential.default_strategies

(* --- differential corpus ------------------------------------------- *)

(* Satellite: Compliance audited against the verifier on a 50-case seeded
   corpus - run_case cross-checks verifier vs Compliance vs Metrics and
   returns a detail string on any disagreement. *)
let test_corpus_50_cases_agree () =
  let cases =
    Differential.cases ~seed:555 ~count:8 ~max_nodes:10 ()
  in
  let cases = List.filteri (fun i _ -> i < 50) cases in
  Alcotest.(check int) "50 cases" 50 (List.length cases);
  List.iter
    (fun case ->
      match Differential.run_case case with
      | None -> ()
      | Some detail ->
        Alcotest.fail (Differential.case_name case ^ ": " ^ detail))
    cases

let prop_fuzz_corpus_clean =
  QCheck.Test.make ~name:"differential fuzz corpus has no failures" ~count:4
    QCheck.(int_bound 100_000)
    (fun seed ->
      let stats =
        Differential.fuzz ~seed ~count:3 ~max_nodes:9 ()
      in
      stats.Fuzz.failures = [])

(* --- fuzz engine --------------------------------------------------- *)

let test_fuzz_shrinks_to_minimum () =
  let run_case n = if n >= 7 then Some ("fails at " ^ string_of_int n) else None in
  let shrink n = if n > 0 then [ n - 1 ] else [] in
  let stats = Fuzz.run ~shrink ~run_case [ 3; 12; 9 ] in
  Alcotest.(check int) "cases" 3 stats.Fuzz.cases_run;
  Alcotest.(check int) "failures" 2 (List.length stats.Fuzz.failures);
  List.iter
    (fun f -> Alcotest.(check int) "shrunk to minimal" 7 f.Fuzz.shrunk)
    stats.Fuzz.failures

let test_fuzz_catches_exceptions () =
  let run_case n = if n = 1 then failwith "boom" else None in
  let stats = Fuzz.run ~run_case [ 0; 1; 2 ] in
  match stats.Fuzz.failures with
  | [ f ] ->
    Alcotest.(check int) "failing case" 1 f.Fuzz.case;
    Alcotest.(check bool) "detail mentions exception" true
      (contains_substring ~sub:"exception" f.Fuzz.detail)
  | _ -> Alcotest.fail "expected exactly one failure"

(* --- statevector distance ------------------------------------------ *)

let test_distance_up_to_global_phase () =
  let a = Statevector.of_circuit (Circuit.of_gates 2 [ Gate.H 0 ]) in
  (* RZ on a wire held in |0> contributes a pure global phase e^(-i th/2) *)
  let b =
    Statevector.of_circuit
      (Circuit.of_gates 2 [ Gate.H 0; Gate.Rz (1, 0.8) ])
  in
  Alcotest.(check bool) "phase-equal states at distance ~0" true
    (Statevector.distance_up_to_global_phase a b < 1e-9);
  let c = Statevector.of_circuit (Circuit.of_gates 2 [ Gate.X 1 ]) in
  let d = Statevector.distance_up_to_global_phase a c in
  Alcotest.(check bool) "orthogonal states at distance sqrt 2" true
    (Float.abs (d -. sqrt 2.0) < 1e-9)

(* --- satellite: Floyd-Warshall vs BFS ------------------------------ *)

let test_hop_distances_agree_with_bfs () =
  let devices =
    [
      Topologies.ibmq_20_tokyo ();
      Topologies.ibmq_16_melbourne ();
      Topologies.grid_6x6 ();
      Topologies.heavy_hex_27 ();
      Topologies.hypothetical_6q ();
      Topologies.linear 10;
      Topologies.ring 9;
    ]
  in
  List.iter
    (fun device ->
      let n = Device.num_qubits device in
      let fw = Profile.hop_distances device in
      for src = 0 to n - 1 do
        let bfs = Paths.bfs_distances device.Device.coupling src in
        for dst = 0 to n - 1 do
          let expected =
            if bfs.(dst) = max_int then Float.infinity else float_of_int bfs.(dst)
          in
          if Float_matrix.get fw src dst <> expected then
            Alcotest.failf "%s: d(%d,%d) = %g, BFS says %g"
              device.Device.name src dst
              (Float_matrix.get fw src dst)
              expected
        done
      done)
    devices

(* --- satellite: OpenQASM round trip -------------------------------- *)

let test_qasm_round_trip_counts () =
  List.iter
    (fun strategy ->
      let _, _, _, r = compile_one ~topology:"melbourne" ~seed:11 ~strategy () in
      let circuit = r.Compile.circuit in
      let parsed = Qasm.of_string (Qasm.to_string circuit) in
      Alcotest.(check int)
        (Compile.strategy_name strategy ^ " qubits survive")
        (Circuit.num_qubits circuit)
        (Circuit.num_qubits parsed);
      Alcotest.(check (list (pair string int)))
        (Compile.strategy_name strategy ^ " gate counts survive")
        (Metrics.counts_by_name circuit)
        (Metrics.counts_by_name parsed))
    Differential.default_strategies

let suite =
  [
    ("healthy compiles validate (7 policies)", `Quick, test_healthy_all_strategies);
    ("above limit: phase-poly oracle or explicit skip", `Quick,
     test_semantic_above_limit_uses_phase_poly);
    ("wrong-pair CNOT rejected by name", `Quick, test_wrong_pair_cnot_rejected);
    ("coupled wrong-pair CNOT rejected", `Quick, test_coupled_wrong_pair_rejected);
    ("dropped gate rejected", `Quick, test_dropped_gate_rejected);
    ("swap count mismatch rejected", `Quick, test_swap_count_mismatch);
    ("final mapping lie rejected", `Quick, test_final_mapping_mismatch);
    ("non-commuting reorder caught semantically", `Quick,
     test_noncommuting_reorder_caught);
    ("swap permutation tracked", `Quick, test_swap_permutation_tracked);
    ("compile ~verify flag", `Quick, test_compile_verify_flag);
    ("compliance/metrics/verifier agree on 50 cases", `Slow,
     test_corpus_50_cases_agree);
    QCheck_alcotest.to_alcotest prop_fuzz_corpus_clean;
    ("fuzz engine shrinks to minimum", `Quick, test_fuzz_shrinks_to_minimum);
    ("fuzz engine catches exceptions", `Quick, test_fuzz_catches_exceptions);
    ("statevector phase-aligned distance", `Quick,
     test_distance_up_to_global_phase);
    ("hop distances: Floyd-Warshall = BFS", `Quick,
     test_hop_distances_agree_with_bfs);
    ("qasm round-trip preserves counts", `Quick, test_qasm_round_trip_counts);
  ]
