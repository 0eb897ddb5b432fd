(* Tests for device topologies, calibration and profiling.  Anchored to
   the paper's own published data: the Fig. 3(b) connectivity strengths of
   ibmq_20_tokyo and the Fig. 6(c,d) distance matrices of the hypothetical
   6-qubit machine. *)

module Graph = Qaoa_graph.Graph
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Topologies = Qaoa_hardware.Topologies
module Profile = Qaoa_hardware.Profile
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng

let test_tokyo_shape () =
  let d = Topologies.ibmq_20_tokyo () in
  Alcotest.(check int) "20 qubits" 20 (Device.num_qubits d);
  Alcotest.(check bool) "connected" true (Graph.is_connected d.Device.coupling);
  Alcotest.(check bool) "0-1 coupled" true (Device.coupled d 0 1);
  Alcotest.(check bool) "1-0 symmetric" true (Device.coupled d 1 0);
  Alcotest.(check bool) "0-19 not coupled" false (Device.coupled d 0 19)

(* Fig. 3(b): connectivity strength = first + second neighbors.  The
   paper spells out strength(qubit 0) = 7 (2 first + 5 second) and that
   qubits 7 and 12 share the maximum of 18. *)
let test_tokyo_connectivity_strengths () =
  let d = Topologies.ibmq_20_tokyo () in
  Alcotest.(check int) "qubit 0" 7 (Profile.connectivity_strength d 0);
  Alcotest.(check int) "qubit 7" 18 (Profile.connectivity_strength d 7);
  Alcotest.(check int) "qubit 12" 18 (Profile.connectivity_strength d 12);
  let profile = Profile.connectivity_profile d in
  let maximum = Array.fold_left max 0 profile in
  Alcotest.(check int) "18 is the maximum" 18 maximum;
  let argmaxes =
    List.filter (fun q -> profile.(q) = maximum) (List.init 20 (fun i -> i))
  in
  Alcotest.(check (list int)) "achieved exactly by 7 and 12" [ 7; 12 ] argmaxes

let test_tokyo_first_second_neighbors () =
  (* The paper's example: qubit 0 has first neighbors {1, 5} and second
     neighbors {2, 6, 7, 10, 11}. *)
  let d = Topologies.ibmq_20_tokyo () in
  Alcotest.(check (list int)) "first neighbors of 0" [ 1; 5 ]
    (Graph.neighbors d.Device.coupling 0);
  Alcotest.(check int) "order-1 strength" 2 (Profile.connectivity_strength ~order:1 d 0)

let test_melbourne_shape () =
  let d = Topologies.ibmq_16_melbourne () in
  Alcotest.(check int) "15 qubits" 15 (Device.num_qubits d);
  Alcotest.(check int) "20 couplings" 20 (List.length (Device.coupling_edges d));
  Alcotest.(check bool) "connected" true (Graph.is_connected d.Device.coupling);
  (* ladder: interior qubits have degree 3, the rung ends 2, and qubit 7
     (the dangling corner of the real device) degree 1 *)
  List.iter
    (fun q ->
      let deg = Graph.degree d.Device.coupling q in
      Alcotest.(check bool) "ladder degrees" true (deg >= 1 && deg <= 3))
    (Graph.vertices d.Device.coupling);
  Alcotest.(check int) "corner qubit 7" 1 (Graph.degree d.Device.coupling 7)

let test_melbourne_calibration () =
  let d = Topologies.ibmq_16_melbourne () in
  let cal = Device.calibration_exn d in
  Alcotest.(check (float 1e-9)) "(0,1) rate" 1.87e-2 (Calibration.cnot_error cal 0 1);
  Alcotest.(check (float 1e-9)) "unordered lookup" 1.87e-2
    (Calibration.cnot_error cal 1 0);
  (* every coupling has a rate *)
  List.iter
    (fun (u, v) ->
      match Calibration.cnot_error_opt cal u v with
      | Some e -> Alcotest.(check bool) "plausible rate" true (e > 0.0 && e < 0.2)
      | None -> Alcotest.fail "missing calibration entry")
    (Device.coupling_edges d);
  let (wu, wv), we = Calibration.worst_edge cal in
  Alcotest.(check (float 1e-9)) "worst edge is (3,4)" 8.60e-2 we;
  Alcotest.(check (pair int int)) "worst pair" (3, 4) (wu, wv)

let test_calibration_success_rates () =
  let cal = Calibration.create [ (0, 1, 0.1) ] in
  Alcotest.(check (float 1e-12)) "cnot success" 0.9 (Calibration.cnot_success cal 0 1);
  Alcotest.(check (float 1e-12)) "cphase success" 0.81
    (Calibration.cphase_success cal 0 1);
  Alcotest.check_raises "unknown pair"
    (Failure "Calibration.cnot_error: no rate recorded for coupling (0, 2)")
    (fun () -> ignore (Calibration.cnot_error cal 0 2))

let test_calibration_random () =
  let rng = Rng.create 31 in
  let edges = [ (0, 1); (1, 2); (2, 3) ] in
  let cal = Calibration.random rng edges in
  List.iter
    (fun (u, v) ->
      let e = Calibration.cnot_error cal u v in
      Alcotest.(check bool) "clamped range" true (e >= 1e-4 && e <= 0.5))
    edges;
  Alcotest.(check int) "edge list" 3 (List.length (Calibration.edges cal))

let test_grid_and_friends () =
  let g = Topologies.grid_6x6 () in
  Alcotest.(check int) "36 qubits" 36 (Device.num_qubits g);
  Alcotest.(check int) "60 couplings" 60 (List.length (Device.coupling_edges g));
  let l = Topologies.linear 5 in
  Alcotest.(check int) "linear couplings" 4 (List.length (Device.coupling_edges l));
  let r = Topologies.ring 8 in
  Alcotest.(check int) "ring couplings" 8 (List.length (Device.coupling_edges r))

(* Fig. 6(c): hop distances of the hypothetical 6-qubit machine. *)
let test_hypothetical_hop_distances () =
  let d = Topologies.hypothetical_6q () in
  let m = Profile.hop_distances d in
  let expect =
    [
      (0, 1, 1.); (0, 2, 2.); (0, 3, 3.); (0, 4, 2.); (0, 5, 1.);
      (1, 2, 1.); (1, 3, 2.); (1, 4, 1.); (1, 5, 2.);
      (2, 3, 1.); (2, 4, 2.); (2, 5, 3.);
      (3, 4, 1.); (3, 5, 2.);
      (4, 5, 1.);
    ]
  in
  List.iter
    (fun (u, v, e) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "d(%d,%d)" u v)
        e (Float_matrix.get m u v))
    expect

(* Fig. 6(d): reliability-weighted distances.  The paper's table is
   printed at 2 decimals and appears to sum rounded per-edge weights, so
   compare with a 0.02 tolerance. *)
let test_hypothetical_weighted_distances () =
  let d = Topologies.hypothetical_6q () in
  let m = Profile.weighted_distances d in
  let expect =
    [
      (0, 1, 1.11); (0, 2, 2.29); (0, 3, 3.41); (0, 4, 2.34); (0, 5, 1.22);
      (1, 2, 1.18); (1, 3, 2.30); (1, 4, 1.23); (1, 5, 2.33);
      (2, 3, 1.12); (2, 4, 2.26); (2, 5, 3.45);
      (3, 4, 1.14); (3, 5, 2.33);
      (4, 5, 1.19);
    ]
  in
  List.iter
    (fun (u, v, e) ->
      Alcotest.(check (float 0.02))
        (Printf.sprintf "w(%d,%d)" u v)
        e (Float_matrix.get m u v))
    expect

let test_distance_matrix_switch () =
  let d = Topologies.hypothetical_6q () in
  let hop = Profile.distance_matrix ~variation_aware:false d in
  let weighted = Profile.distance_matrix ~variation_aware:true d in
  Alcotest.(check (float 1e-9)) "hop is 1" 1.0 (Float_matrix.get hop 0 1);
  Alcotest.(check bool) "weighted > hop" true (Float_matrix.get weighted 0 1 > 1.0)

let test_heavy_hex () =
  let d = Topologies.heavy_hex_27 () in
  Alcotest.(check int) "27 qubits" 27 (Device.num_qubits d);
  Alcotest.(check int) "28 couplings" 28 (List.length (Device.coupling_edges d));
  Alcotest.(check bool) "connected" true (Graph.is_connected d.Device.coupling);
  (* heavy-hex: maximum degree 3 *)
  List.iter
    (fun q ->
      Alcotest.(check bool) "degree <= 3" true
        (Graph.degree d.Device.coupling q <= 3))
    (Graph.vertices d.Device.coupling);
  (* sparser than tokyo: lower peak connectivity strength *)
  let peak dev =
    Array.fold_left max 0 (Profile.connectivity_profile dev)
  in
  Alcotest.(check bool) "sparser than tokyo" true
    (peak d < peak (Topologies.ibmq_20_tokyo ()))

let test_by_name () =
  let check name expected_qubits =
    match Topologies.by_name name with
    | Some d -> Alcotest.(check int) name expected_qubits (Device.num_qubits d)
    | None -> Alcotest.fail ("lookup failed: " ^ name)
  in
  check "tokyo" 20;
  check "melbourne" 15;
  check "grid6x6" 36;
  check "heavyhex27" 27;
  check "linear7" 7;
  check "ring8" 8;
  check "hypothetical6q" 6;
  Alcotest.(check bool) "unknown" true (Topologies.by_name "nope" = None);
  Alcotest.(check bool) "ring2 invalid" true (Topologies.by_name "ring2" = None);
  check (Printf.sprintf "linear%d" Topologies.max_qubits) Topologies.max_qubits;
  check (Printf.sprintf "ring%d" Topologies.max_qubits) Topologies.max_qubits;
  (* above the ceiling, or N not in canonical decimal *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not a device") true
        (Topologies.by_name name = None))
    [
      Printf.sprintf "linear%d" (Topologies.max_qubits + 1);
      Printf.sprintf "ring%d" (Topologies.max_qubits + 1);
      "linear100000000000000";
      "linear08";
      "linear0x8";
      "linear+8";
      "linear8_";
      "ring0o10";
    ]

let test_with_random_calibration () =
  let rng = Rng.create 7 in
  let d = Topologies.ibmq_20_tokyo () in
  Alcotest.check_raises "no calibration"
    (Invalid_argument "ibmq_20_tokyo: device has no calibration data")
    (fun () -> ignore (Device.calibration_exn d));
  let d2 = Device.with_random_calibration rng d in
  let cal = Device.calibration_exn d2 in
  Alcotest.(check int) "all couplings calibrated"
    (List.length (Device.coupling_edges d))
    (List.length (Calibration.edges cal))

let suite =
  [
    ("tokyo shape", `Quick, test_tokyo_shape);
    ("tokyo connectivity strengths (Fig 3b)", `Quick, test_tokyo_connectivity_strengths);
    ("tokyo neighbors example", `Quick, test_tokyo_first_second_neighbors);
    ("melbourne shape", `Quick, test_melbourne_shape);
    ("melbourne calibration (Fig 10a)", `Quick, test_melbourne_calibration);
    ("calibration success rates", `Quick, test_calibration_success_rates);
    ("random calibration", `Quick, test_calibration_random);
    ("grid/linear/ring", `Quick, test_grid_and_friends);
    ("heavy-hex 27", `Quick, test_heavy_hex);
    ("hypothetical 6q hops (Fig 6c)", `Quick, test_hypothetical_hop_distances);
    ("hypothetical 6q weighted (Fig 6d)", `Quick, test_hypothetical_weighted_distances);
    ("distance matrix switch", `Quick, test_distance_matrix_switch);
    ("device lookup by name", `Quick, test_by_name);
    ("random calibration attach", `Quick, test_with_random_calibration);
  ]
