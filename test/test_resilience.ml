(* Fault injection, graceful degradation, and deadline tests: the
   qaoa_resilience library plus Compile's error taxonomy and fallback
   chain. *)

module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Topologies = Qaoa_hardware.Topologies
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router
module Fault = Qaoa_resilience.Fault
module Faultspace = Qaoa_resilience.Faultspace
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Check = Qaoa_verify.Check
module Workload = Qaoa_experiments.Workload
module Rng = Qaoa_util.Rng

let params = Workload.default_params

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let calibrated_tokyo seed =
  Device.with_random_calibration (Rng.create seed) (Topologies.ibmq_20_tokyo ())

let cal_entries device =
  match device.Device.calibration with
  | Some cal -> Calibration.entries cal
  | None -> []

let check_validate device = Alcotest.(check (result unit (list string)))
  "device validates" (Ok ()) (Device.validate device)

(* --- fault injection --- *)

let test_fault_determinism () =
  let base = calibrated_tokyo 5 in
  let faults =
    [
      Fault.Random_dead_qubits 2;
      Fault.Random_severed_couplings 3;
      Fault.Calibration_drift { sigma = 0.3 };
      Fault.Dropped_calibration { fraction = 0.2 };
    ]
  in
  let a = Fault.apply_all ~seed:11 faults base in
  let b = Fault.apply_all ~seed:11 faults base in
  Alcotest.(check bool)
    "same seed, same coupling" true
    (Graph.equal a.Device.coupling b.Device.coupling);
  Alcotest.(check (list (triple int int (float 0.0))))
    "same seed, same calibration" (cal_entries a) (cal_entries b);
  let c = Fault.apply_all ~seed:12 faults base in
  Alcotest.(check bool)
    "different seed perturbs differently" false
    (Graph.equal a.Device.coupling c.Device.coupling
    && cal_entries a = cal_entries c)

let test_dead_qubit () =
  let base = Topologies.ibmq_16_melbourne () in
  let dead = 3 in
  let faulty = Fault.apply ~seed:1 (Fault.Dead_qubit dead) base in
  Alcotest.(check int)
    "register size unchanged" (Device.num_qubits base)
    (Device.num_qubits faulty);
  Alcotest.(check int)
    "no incident couplings" 0
    (Graph.degree faulty.Device.coupling dead);
  Alcotest.(check bool)
    "no calibration entry touches the dead qubit" true
    (List.for_all
       (fun (u, v, _) -> u <> dead && v <> dead)
       (cal_entries faulty));
  check_validate faulty

let test_severed_coupling () =
  let base = Topologies.ibmq_16_melbourne () in
  let u, v = List.hd (Device.coupling_edges base) in
  let faulty = Fault.apply ~seed:1 (Fault.Severed_coupling (u, v)) base in
  Alcotest.(check bool)
    "edge gone" false
    (Graph.has_edge faulty.Device.coupling u v);
  Alcotest.(check bool)
    "calibration entry gone" true
    (Calibration.cnot_error_opt
       (Device.calibration_exn faulty)
       u v
    = None);
  Alcotest.(check int)
    "exactly one edge removed"
    (Graph.num_edges base.Device.coupling - 1)
    (Graph.num_edges faulty.Device.coupling);
  check_validate faulty;
  Alcotest.check_raises "nonexistent coupling rejected"
    (Invalid_argument
       (Printf.sprintf "Fault: coupling (0, 13) does not exist on %s"
          base.Device.name))
    (fun () -> ignore (Fault.apply ~seed:1 (Fault.Severed_coupling (0, 13)) base))

let test_calibration_drift () =
  let base = Topologies.ibmq_16_melbourne () in
  let faulty =
    Fault.apply ~seed:4 (Fault.Calibration_drift { sigma = 0.5 }) base
  in
  let before = cal_entries base and after = cal_entries faulty in
  Alcotest.(check int)
    "entry count preserved" (List.length before) (List.length after);
  Alcotest.(check bool)
    "all rates within the clamp" true
    (List.for_all (fun (_, _, e) -> e >= 1e-4 && e <= 0.5) after);
  Alcotest.(check bool)
    "rates actually moved" true
    (List.exists2
       (fun (_, _, e0) (_, _, e1) -> Float.abs (e0 -. e1) > 1e-9)
       before after);
  check_validate faulty

let test_dropped_calibration () =
  let base = calibrated_tokyo 5 in
  let n = List.length (cal_entries base) in
  let faulty =
    Fault.apply ~seed:7 (Fault.Dropped_calibration { fraction = 0.2 }) base
  in
  let expected_drop = max 1 (int_of_float (Float.round (0.2 *. float_of_int n))) in
  Alcotest.(check int)
    "20% of entries dropped" (n - expected_drop)
    (List.length (cal_entries faulty));
  let cal = Device.calibration_exn faulty in
  let missing =
    List.filter
      (fun (u, v) -> Calibration.cnot_error_opt cal u v = None)
      (Device.coupling_edges faulty)
  in
  Alcotest.(check int) "missing couplings found" expected_drop
    (List.length missing);
  check_validate faulty;
  let worst =
    List.fold_left (fun acc (_, _, e) -> Float.max acc e) 0.0
      (cal_entries faulty)
  in
  Alcotest.(check (float 0.0))
    "unrecorded couplings are charged the worst recorded rate" worst
    (Calibration.unrecorded_error cal)

let test_calibration_create_rejects_duplicates () =
  Alcotest.check_raises "duplicate coupling"
    (Invalid_argument "Calibration.create: duplicate coupling (0, 1)")
    (fun () -> ignore (Calibration.create [ (0, 1, 0.1); (1, 0, 0.2) ]));
  Alcotest.check_raises "self-coupling"
    (Invalid_argument "Calibration.create: self-coupling (2, 2)")
    (fun () -> ignore (Calibration.create [ (2, 2, 0.1) ]))

let test_device_validate_rejects_offgraph_calibration () =
  let coupling = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let cal = Calibration.create [ (0, 2, 0.1) ] in
  let device = Device.create ~calibration:cal ~name:"bogus" coupling in
  match Device.validate device with
  | Ok () -> Alcotest.fail "off-graph calibration entry must not validate"
  | Error issues -> Alcotest.(check bool) "names issues" true (issues <> [])

(* --- graceful degradation --- *)

let fig10_workloads =
  List.concat_map
    (fun kind -> List.map (fun n -> (kind, n)) [ 13; 14; 15 ])
    [ Workload.Erdos_renyi 0.5; Workload.Regular 6 ]

let test_acceptance_degraded_device_compiles () =
  (* The ISSUE's acceptance scenario: a calibrated 20-qubit register with
     two dead qubits and 20% of the calibration entries missing must
     still compile every Fig. 10 workload shape through the fallback
     chain, with a hardware-compliant, validated circuit. *)
  let device =
    Fault.apply_all ~seed:23
      [ Fault.Random_dead_qubits 2; Fault.Dropped_calibration { fraction = 0.2 } ]
      (calibrated_tokyo 5)
  in
  check_validate device;
  let options = { Compile.default_options with seed = 99 } in
  List.iter
    (fun (kind, n) ->
      let name = Printf.sprintf "%s n=%d" (Workload.kind_name kind) n in
      let problem =
        List.hd (Workload.problems (Rng.create (1000 + n)) kind ~n ~count:1)
      in
      match Compile.compile_with_fallback ~options device problem params with
      | Error trail ->
        Alcotest.failf "%s exhausted the chain after %d attempts" name
          (List.length trail)
      | Ok fb ->
        let r = fb.Compile.fallback_result in
        let trail = fb.Compile.attempts in
        Alcotest.(check bool) (name ^ " records attempts") true (trail <> []);
        let last = List.nth trail (List.length trail - 1) in
        Alcotest.(check bool)
          (name ^ " last attempt is the winner") true
          (last.Compile.attempt_error = None
          && last.Compile.attempt_strategy = r.Compile.strategy);
        let logical = Ansatz.circuit ~measure:true problem params in
        let report =
          Check.validate ~device ~initial:r.Compile.initial_mapping
            ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count
            ~logical r.Compile.circuit
        in
        if not (Check.ok report) then
          Alcotest.failf "%s failed validation: %s" name
            (Check.report_to_string report))
    fig10_workloads

let test_fallback_deterministic () =
  (* Uncalibrated tokyo: VIC fails structurally (missing calibration),
     the chain falls through to IC - twice, identically. *)
  let device = Topologies.ibmq_20_tokyo () in
  let problem =
    List.hd
      (Workload.problems (Rng.create 3) (Workload.Erdos_renyi 0.5) ~n:14
         ~count:1)
  in
  let run () = Compile.compile_with_fallback device problem params in
  match (run (), run ()) with
  | Ok a, Ok b ->
    let digest fb =
      List.map
        (fun at ->
          ( Compile.strategy_name at.Compile.attempt_strategy,
            at.Compile.attempt_seed,
            Option.map Compile.error_kind at.Compile.attempt_error ))
        fb.Compile.attempts
    in
    Alcotest.(check (list (triple string int (option string))))
      "identical attempt trails" (digest a) (digest b);
    (match a.Compile.attempts with
    | first :: _ ->
      Alcotest.(check (option string))
        "VIC rejected for missing calibration" (Some "missing_calibration")
        (Option.map Compile.error_kind first.Compile.attempt_error)
    | [] -> Alcotest.fail "no attempts recorded");
    Alcotest.(check string)
      "IC wins" "IC"
      (Compile.strategy_name a.Compile.fallback_result.Compile.strategy)
  | _ -> Alcotest.fail "fallback chain failed on a healthy device"

let test_unroutable_split_device () =
  (* Two disconnected 2-qubit islands cannot host a triangle: every
     strategy must fail with a structured error, never an escape. *)
  let device =
    Device.create ~name:"split" (Graph.of_edges 4 [ (0, 1); (2, 3) ])
  in
  let problem = Problem.of_maxcut (Generators.cycle 3) in
  match Compile.compile_with_fallback device problem params with
  | Ok _ -> Alcotest.fail "a triangle cannot route on disconnected islands"
  | Error trail ->
    Alcotest.(check bool) "trail is non-empty" true (trail <> []);
    List.iter
      (fun at ->
        match at.Compile.attempt_error with
        | None -> Alcotest.fail "exhausted trail cannot contain a winner"
        | Some e ->
          let kind = Compile.error_kind e in
          Alcotest.(check bool)
            ("structured failure, got " ^ kind)
            true
            (List.mem kind
               [ "unroutable"; "missing_calibration"; "strategy_failed" ]))
      trail

let test_deadline_aborts () =
  (* An adversarially deep workload on the 36-qubit grid against a tight
     wall-clock budget: the cooperative checks must abort the compile
     within twice the budget.  The workload must outlast the budget
     many times over, so that a faster compiler cannot finish inside
     it: uncapped, it runs 1.0-1.4 s on a 2-core x86-64 VM. *)
  let device = Topologies.grid_6x6 () in
  let problem =
    List.hd
      (Workload.problems (Rng.create 8) (Workload.Erdos_renyi 0.9) ~n:36
         ~count:1)
  in
  let p = 400 in
  let deep =
    { Ansatz.gammas = Array.make p 0.7; betas = Array.make p 0.4 }
  in
  let budget_s = 0.1 in
  let options =
    { Compile.default_options with deadline_s = Some budget_s }
  in
  let t0 = Qaoa_obs.Clock.wall () in
  let outcome =
    Compile.compile_result ~options ~strategy:(Compile.Ic None) device problem
      deep
  in
  let elapsed = Qaoa_obs.Clock.wall () -. t0 in
  (match outcome with
  | Error (Compile.Deadline_exceeded { budget_s = b; elapsed_s }) ->
    Alcotest.(check (float 1e-9)) "budget echoed" budget_s b;
    Alcotest.(check bool) "elapsed past budget" true (elapsed_s >= budget_s)
  | Error e ->
    Alcotest.failf "expected Deadline_exceeded, got %s"
      (Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "expected the deadline to fire on p=40 grid-36");
  Alcotest.(check bool)
    (Printf.sprintf "aborted within 2x budget (%.3fs)" elapsed)
    true
    (elapsed <= 2.0 *. budget_s)

let test_drifted_calibration_verifies () =
  (* A drifted (but complete) snapshot must not disturb correctness: VIC
     compiles under translation validation. *)
  let device =
    Fault.apply ~seed:6
      (Fault.Calibration_drift { sigma = 0.4 })
      (Topologies.ibmq_16_melbourne ())
  in
  let problem =
    List.hd
      (Workload.problems (Rng.create 9) (Workload.Erdos_renyi 0.5) ~n:12
         ~count:1)
  in
  let options = { Compile.default_options with verify = true } in
  let r =
    Compile.compile ~options ~strategy:(Compile.Vic None) device problem params
  in
  Alcotest.(check bool) "compiled with swaps or not" true (r.Compile.swap_count >= 0)

let test_router_unroutable_exception () =
  let device =
    Device.create ~name:"islands" (Graph.of_edges 4 [ (0, 1); (2, 3) ])
  in
  let circuit =
    Qaoa_circuit.Circuit.of_gates 4 [ Qaoa_circuit.Gate.Cnot (1, 2) ]
  in
  let initial = Mapping.trivial ~num_logical:4 ~num_physical:4 in
  match Router.route ~device ~initial circuit with
  | _ -> Alcotest.fail "routing across components must raise"
  | exception Router.Unroutable msg ->
    Alcotest.(check bool)
      "message names the device" true
      (contains_substring ~needle:"islands" msg)

let test_faultspace_default () =
  Alcotest.(check string)
    "baseline first" "healthy"
    (List.hd Faultspace.default).Faultspace.label;
  Alcotest.(check bool)
    "includes the acceptance scenario" true
    (List.exists
       (fun sc -> sc.Faultspace.label = "dead*2+drop(20%)")
       Faultspace.default)

let suite =
  [
    Alcotest.test_case "fault injection is deterministic" `Quick
      test_fault_determinism;
    Alcotest.test_case "dead qubit strips couplings and calibration" `Quick
      test_dead_qubit;
    Alcotest.test_case "severed coupling" `Quick test_severed_coupling;
    Alcotest.test_case "calibration drift stays clamped" `Quick
      test_calibration_drift;
    Alcotest.test_case "dropped calibration + pessimistic repair" `Quick
      test_dropped_calibration;
    Alcotest.test_case "calibration create rejects bad snapshots" `Quick
      test_calibration_create_rejects_duplicates;
    Alcotest.test_case "device validate rejects off-graph entries" `Quick
      test_device_validate_rejects_offgraph_calibration;
    Alcotest.test_case "acceptance: degraded device compiles via fallback"
      `Quick test_acceptance_degraded_device_compiles;
    Alcotest.test_case "fallback trail is deterministic" `Quick
      test_fallback_deterministic;
    Alcotest.test_case "unroutable split device yields structured trail"
      `Quick test_unroutable_split_device;
    Alcotest.test_case "deadline aborts within twice the budget" `Quick
      test_deadline_aborts;
    Alcotest.test_case "drifted calibration passes verification" `Quick
      test_drifted_calibration_verifies;
    Alcotest.test_case "router raises structured Unroutable" `Quick
      test_router_unroutable_exception;
    Alcotest.test_case "faultspace scenarios" `Quick test_faultspace_default;
  ]
