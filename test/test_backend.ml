(* Tests for the mapping structure and the SWAP-insertion router.  The
   router's central invariants: the compiled circuit is coupling-compliant
   and semantically equal to the logical circuit up to the final output
   permutation. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router
module Compliance = Qaoa_backend.Compliance
module Stitcher = Qaoa_backend.Stitcher
module Statevector = Qaoa_sim.Statevector
module Rng = Qaoa_util.Rng

(* --- Mapping --- *)

let test_mapping_basics () =
  let m = Mapping.of_array ~num_physical:5 [| 3; 0; 4 |] in
  Alcotest.(check int) "num logical" 3 (Mapping.num_logical m);
  Alcotest.(check int) "num physical" 5 (Mapping.num_physical m);
  Alcotest.(check int) "phys 0" 3 (Mapping.phys m 0);
  Alcotest.(check (option int)) "logical at 4" (Some 2) (Mapping.logical_at m 4);
  Alcotest.(check (option int)) "empty phys" None (Mapping.logical_at m 1);
  Alcotest.(check bool) "allocated" true (Mapping.is_allocated m 0);
  Alcotest.(check bool) "not allocated" false (Mapping.is_allocated m 2);
  Alcotest.(check (list (pair int int))) "alist" [ (0, 3); (1, 0); (2, 4) ]
    (Mapping.to_alist m)

let test_mapping_validation () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Mapping.of_array: duplicate target") (fun () ->
      ignore (Mapping.of_array ~num_physical:3 [| 1; 1 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mapping.of_array: physical qubit out of range")
    (fun () -> ignore (Mapping.of_array ~num_physical:3 [| 5 |]));
  Alcotest.check_raises "too many"
    (Invalid_argument "Mapping.of_array: more logical than physical qubits")
    (fun () -> ignore (Mapping.of_array ~num_physical:2 [| 0; 1; 2 |]))

let test_mapping_swap () =
  let m = Mapping.of_array ~num_physical:4 [| 0; 1 |] in
  let m2 = Mapping.swap_physical m 1 2 in
  Alcotest.(check int) "logical 1 moved" 2 (Mapping.phys m2 1);
  Alcotest.(check (option int)) "phys 1 now empty" None (Mapping.logical_at m2 1);
  (* swapping two empty positions is a no-op on l2p *)
  let m3 = Mapping.swap_physical m2 1 3 in
  Alcotest.(check int) "unchanged" 2 (Mapping.phys m3 1);
  (* persistent: original untouched *)
  Alcotest.(check int) "persistent" 1 (Mapping.phys m 1)

let test_mapping_random () =
  let rng = Rng.create 3 in
  let m = Mapping.random rng ~num_logical:5 ~num_physical:12 in
  let targets = Array.to_list (Mapping.l2p_array m) in
  Alcotest.(check int) "distinct targets" 5
    (List.length (List.sort_uniq compare targets))

(* --- Router: small hand-checked cases --- *)

let test_route_no_swaps_needed () =
  (* adjacent CNOT on a linear device: no swaps *)
  let device = Topologies.linear 3 in
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (1, 2) ] in
  let r =
    Router.route ~device
      ~initial:(Mapping.trivial ~num_logical:3 ~num_physical:3)
      c
  in
  Alcotest.(check int) "no swaps" 0 r.Router.swap_count;
  Alcotest.(check bool) "compliant" true (Compliance.is_compliant device r.Router.circuit)

let test_route_one_swap () =
  (* CNOT between the two ends of a 3-qubit chain needs exactly 1 swap *)
  let device = Topologies.linear 3 in
  let c = Circuit.of_gates 3 [ Gate.Cnot (0, 2) ] in
  let r =
    Router.route ~device
      ~initial:(Mapping.trivial ~num_logical:3 ~num_physical:3)
      c
  in
  Alcotest.(check int) "one swap" 1 r.Router.swap_count;
  Alcotest.(check bool) "compliant" true (Compliance.is_compliant device r.Router.circuit)

let test_route_respects_initial_mapping () =
  (* with logical 0 at physical 2 and logical 1 at physical 1, the CNOT is
     already satisfied *)
  let device = Topologies.linear 3 in
  let c = Circuit.of_gates 2 [ Gate.Cnot (0, 1) ] in
  let initial = Mapping.of_array ~num_physical:3 [| 2; 1 |] in
  let r = Router.route ~device ~initial c in
  Alcotest.(check int) "no swaps" 0 r.Router.swap_count;
  match Circuit.gates r.Router.circuit with
  | [ Gate.Cnot (2, 1) ] -> ()
  | _ -> Alcotest.fail "gate not emitted at physical locations"

let test_route_rejects_bad_mapping () =
  let device = Topologies.linear 3 in
  let c = Circuit.of_gates 3 [ Gate.H 0 ] in
  Alcotest.check_raises "too few logical"
    (Invalid_argument "Router: mapping covers fewer qubits than the circuit")
    (fun () ->
      ignore
        (Router.route ~device
           ~initial:(Mapping.trivial ~num_logical:2 ~num_physical:3)
           c));
  Alcotest.check_raises "wrong device size"
    (Invalid_argument "Router: mapping sized for a different device")
    (fun () ->
      ignore
        (Router.route ~device
           ~initial:(Mapping.trivial ~num_logical:3 ~num_physical:4)
           c))

(* The scorer counts on a layer's two-qubit gates touching disjoint
   qubits: a hand-built layer that breaks this is refused, in the layer
   being routed and in the next one it looks ahead to, as is a gate on
   one qubit twice.  The layerings the compiler builds never overlap. *)
let test_route_layers_rejects_overlap () =
  let device = Topologies.linear 5 in
  let initial = Mapping.trivial ~num_logical:5 ~num_physical:5 in
  let route layers =
    ignore (Router.route_layers ~device ~initial ~num_logical:5 layers : Router.result)
  in
  let overlap a b =
    Invalid_argument
      (Printf.sprintf "Router: two-qubit gates of one layer overlap at logical (%d, %d)" a b)
  in
  Alcotest.check_raises "same layer" (overlap 1 3) (fun () ->
      route [ [ Gate.H 4; Gate.Cnot (0, 1); Gate.Cphase (1, 3, 0.5) ] ]);
  Alcotest.check_raises "next layer" (overlap 4 2) (fun () ->
      route [ [ Gate.Cnot (0, 4) ]; [ Gate.Swap (2, 4); Gate.Cnot (4, 2) ] ]);
  Alcotest.check_raises "one qubit twice" (overlap 2 2) (fun () ->
      route [ [ Gate.Cnot (2, 2) ] ]);
  (* disjoint pairs with one-qubit gates on the same qubits still route *)
  let r =
    Router.route_layers ~device ~initial ~num_logical:5
      [ [ Gate.H 0; Gate.Cnot (0, 4); Gate.Cnot (1, 2); Gate.X 4 ] ]
  in
  Alcotest.(check bool) "compliant" true (Compliance.is_compliant device r.Router.circuit)

(* A next-layer pair whose hosts lie in different components has an
   infinite distance, so every candidate's score is infinite (or NaN):
   the first improving candidate wins and no tie is drawn, and the next
   layer raises.  The message, which names where the SWAPs left the
   pair, was recorded before SWAPs were scored by what they change. *)
let test_route_lookahead_across_components () =
  let device =
    Device.create ~name:"split6"
      (Qaoa_graph.Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (4, 5) ])
  in
  let initial = Mapping.trivial ~num_logical:6 ~num_physical:6 in
  Alcotest.check_raises "unroutable"
    (Router.Unroutable
       "two-qubit gate on logical (1, 4): physical hosts 0 and 4 lie in \
        disconnected components of split6")
    (fun () ->
      ignore
        (Router.route_layers ~device ~initial ~num_logical:6
           [ [ Gate.Cnot (0, 3) ]; [ Gate.Cnot (1, 4) ] ]
          : Router.result))

(* --- Router: semantic equivalence ---

   The compiled physical circuit, applied to |0...0>, must equal the
   logical circuit's state re-indexed through the final mapping:
   amplitude_phys[embed(b)] = amplitude_logical[b] where embed places
   logical bit l at physical position phys(final, l). *)

let embed mapping ~num_logical b =
  let out = ref 0 in
  for l = 0 to num_logical - 1 do
    if b land (1 lsl l) <> 0 then out := !out lor (1 lsl (Mapping.phys mapping l))
  done;
  !out

let check_router_semantics device initial logical_circuit =
  let r = Router.route ~device ~initial logical_circuit in
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Router.circuit);
  let k = Circuit.num_qubits logical_circuit in
  let sl = Statevector.of_circuit logical_circuit in
  let sp = Statevector.of_circuit r.Router.circuit in
  for b = 0 to (1 lsl k) - 1 do
    let lr, li = Statevector.amplitude sl b in
    let pr, pi =
      Statevector.amplitude sp (embed r.Router.final_mapping ~num_logical:k b)
    in
    if Float.abs (lr -. pr) > 1e-9 || Float.abs (li -. pi) > 1e-9 then
      Alcotest.failf "amplitude mismatch at %d" b
  done

let random_2q_circuit rng n len =
  Circuit.of_gates n
    (List.init len (fun _ ->
         match Rng.int rng 4 with
         | 0 -> Gate.H (Rng.int rng n)
         | 1 -> Gate.Rx (Rng.int rng n, Rng.float rng 3.0)
         | 2 ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.Cnot (a, b)
         | _ ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.Cphase (a, b, Rng.float rng 3.0)))

let test_semantics_linear () =
  let rng = Rng.create 11 in
  let device = Topologies.linear 5 in
  for _ = 1 to 5 do
    let c = random_2q_circuit rng 5 15 in
    check_router_semantics device
      (Mapping.trivial ~num_logical:5 ~num_physical:5)
      c
  done

let test_semantics_ring_with_spare_qubits () =
  let rng = Rng.create 13 in
  let device = Topologies.ring 7 in
  for _ = 1 to 5 do
    let c = random_2q_circuit rng 4 12 in
    let initial = Mapping.random rng ~num_logical:4 ~num_physical:7 in
    check_router_semantics device initial c
  done

let prop_router_semantics =
  QCheck.Test.make ~name:"router preserves semantics up to permutation"
    ~count:30
    QCheck.(pair (int_bound 100000) (int_range 3 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let device = if n mod 2 = 0 then Topologies.linear n else Topologies.ring (max 3 n) in
      let c = random_2q_circuit rng n 12 in
      let initial = Mapping.random rng ~num_logical:n ~num_physical:(Device.num_qubits device) in
      let r = Router.route ~device ~initial c in
      if not (Compliance.is_compliant device r.Router.circuit) then false
      else begin
        let sl = Statevector.of_circuit c in
        let sp = Statevector.of_circuit r.Router.circuit in
        let ok = ref true in
        for b = 0 to (1 lsl n) - 1 do
          let lr, li = Statevector.amplitude sl b in
          let pr, pi =
            Statevector.amplitude sp (embed r.Router.final_mapping ~num_logical:n b)
          in
          if Float.abs (lr -. pr) > 1e-9 || Float.abs (li -. pi) > 1e-9 then
            ok := false
        done;
        !ok
      end)

let test_route_on_tokyo_compliant () =
  let rng = Rng.create 17 in
  let device = Topologies.ibmq_20_tokyo () in
  let c = random_2q_circuit rng 12 60 in
  let initial = Mapping.random rng ~num_logical:12 ~num_physical:20 in
  let r = Router.route ~device ~initial c in
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Router.circuit);
  (* every logical gate must survive routing: gate count = input + 1 swap each *)
  let non_swap =
    List.filter (function Gate.Swap _ -> false | _ -> true)
      (Circuit.gates r.Router.circuit)
  in
  Alcotest.(check int) "all gates preserved" (Circuit.length c)
    (List.length non_swap)

let test_reliability_aware_router_runs () =
  let rng = Rng.create 19 in
  let device = Topologies.ibmq_16_melbourne () in
  let c = random_2q_circuit rng 8 30 in
  let initial = Mapping.random rng ~num_logical:8 ~num_physical:15 in
  let config = { Router.default_config with reliability_aware = true } in
  let r = Router.route ~config ~device ~initial c in
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Router.circuit)

(* --- Compliance --- *)

let test_compliance_reports () =
  let device = Topologies.linear 3 in
  let bad = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 2) ] in
  (match Compliance.violations device bad with
  | [ { Compliance.gate_index = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single violation at index 1");
  Alcotest.(check bool) "not compliant" false (Compliance.is_compliant device bad);
  let ok = Circuit.of_gates 3 [ Gate.Cnot (0, 1) ] in
  Compliance.check_exn device ok;
  Alcotest.check_raises "check_exn raises"
    (Failure "coupling violation at gate 1: cx q0 q2 on linear_3") (fun () ->
      Compliance.check_exn device bad)

(* --- Stitcher --- *)

let test_stitcher () =
  let a = Circuit.of_gates 2 [ Gate.H 0 ] in
  let b = Circuit.of_gates 2 [ Gate.Cnot (0, 1) ] in
  let s = Stitcher.stitch [ a; b ] in
  Alcotest.(check int) "stitched length" 2 (Circuit.length s);
  Alcotest.check_raises "empty" (Invalid_argument "Stitcher.stitch: no partial circuits")
    (fun () -> ignore (Stitcher.stitch []));
  let m1 = Mapping.trivial ~num_logical:2 ~num_physical:2 in
  let m2 = Mapping.swap_physical m1 0 1 in
  let r1 = { Router.circuit = a; final_mapping = m1; swap_count = 1 } in
  let r2 = { Router.circuit = b; final_mapping = m2; swap_count = 2 } in
  let r = Stitcher.stitch_results [ r1; r2 ] in
  Alcotest.(check int) "swap sum" 3 r.Router.swap_count;
  Alcotest.(check bool) "last mapping wins" true
    (Mapping.equal m2 r.Router.final_mapping)

let suite =
  [
    ("mapping basics", `Quick, test_mapping_basics);
    ("mapping validation", `Quick, test_mapping_validation);
    ("mapping swap", `Quick, test_mapping_swap);
    ("mapping random", `Quick, test_mapping_random);
    ("route: no swaps", `Quick, test_route_no_swaps_needed);
    ("route: one swap", `Quick, test_route_one_swap);
    ("route: initial mapping honoured", `Quick, test_route_respects_initial_mapping);
    ("route: bad mapping rejected", `Quick, test_route_rejects_bad_mapping);
    ("route: overlapping layer rejected", `Quick, test_route_layers_rejects_overlap);
    ("route: lookahead across components", `Quick, test_route_lookahead_across_components);
    ("route semantics on linear", `Quick, test_semantics_linear);
    ("route semantics with spare qubits", `Quick, test_semantics_ring_with_spare_qubits);
    ("route on tokyo compliant", `Quick, test_route_on_tokyo_compliant);
    ("reliability-aware router", `Quick, test_reliability_aware_router_runs);
    ("compliance reports", `Quick, test_compliance_reports);
    ("stitcher", `Quick, test_stitcher);
    QCheck_alcotest.to_alcotest prop_router_semantics;
  ]
