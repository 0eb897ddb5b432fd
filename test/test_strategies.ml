(* Tests for the mapping and scheduling strategies (NAIVE, GreedyV/E,
   QAIM, IP, IC, VIC), the unified Compile API, success probability, ARG
   and the crosstalk extension.  Includes the paper's own worked examples
   (QAIM on Fig. 3, IP on Fig. 4, VIC layer choice of Fig. 6(e)). *)

module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Circuit = Qaoa_circuit.Circuit
module Gate = Qaoa_circuit.Gate
module Layering = Qaoa_circuit.Layering
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Calibration = Qaoa_hardware.Calibration
module Profile = Qaoa_hardware.Profile
module Mapping = Qaoa_backend.Mapping
module Compliance = Qaoa_backend.Compliance
module Statevector = Qaoa_sim.Statevector
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Naive = Qaoa_core.Naive
module Greedy_mapper = Qaoa_core.Greedy_mapper
module Qaim = Qaoa_core.Qaim
module Ip = Qaoa_core.Ip
module Ic = Qaoa_core.Ic
module Compile = Qaoa_core.Compile
module Success = Qaoa_hardware.Success
module Arg = Qaoa_core.Arg
module Crosstalk = Qaoa_core.Crosstalk
module Rng = Qaoa_util.Rng

let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4

let valid_mapping device problem m =
  Alcotest.(check int) "covers problem" problem.Problem.num_vars
    (Mapping.num_logical m);
  Alcotest.(check int) "sized for device" (Device.num_qubits device)
    (Mapping.num_physical m);
  let targets = Array.to_list (Mapping.l2p_array m) in
  Alcotest.(check int) "injective" problem.Problem.num_vars
    (List.length (List.sort_uniq compare targets))

(* --- mappers produce valid mappings --- *)

let test_mappers_valid () =
  let rng = Rng.create 3 in
  let device = Topologies.ibmq_20_tokyo () in
  let g = Generators.random_regular rng ~n:12 ~d:3 in
  let problem = Problem.of_maxcut g in
  valid_mapping device problem (Naive.initial_mapping rng device problem);
  valid_mapping device problem (Greedy_mapper.greedy_v rng device problem);
  valid_mapping device problem (Greedy_mapper.greedy_e rng device problem);
  valid_mapping device problem (Qaim.initial_mapping rng device problem)

let test_mappers_with_isolated_vertices () =
  let rng = Rng.create 5 in
  let device = Topologies.ibmq_16_melbourne () in
  (* vertex 4 is isolated: mappers must still place it *)
  let problem = Problem.of_maxcut (Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3) ]) in
  valid_mapping device problem (Greedy_mapper.greedy_v rng device problem);
  valid_mapping device problem (Greedy_mapper.greedy_e rng device problem);
  valid_mapping device problem (Qaim.initial_mapping rng device problem)

let test_qaim_too_large () =
  let rng = Rng.create 7 in
  let device = Topologies.linear 3 in
  let problem = Problem.of_maxcut (Generators.complete 5) in
  Alcotest.check_raises "problem larger than device"
    (Invalid_argument "Qaim.initial_mapping: problem larger than device")
    (fun () -> ignore (Qaim.initial_mapping rng device problem))

(* QAIM example of Fig. 3: the heaviest logical qubit goes to a physical
   qubit of maximum connectivity strength (7 or 12 on tokyo). *)
let fig3_problem () =
  (* q0 with 4 ops; q1, q4 with 3; q2, q3 with 2 (Fig. 5's gate list) *)
  Problem.of_maxcut
    (Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 4); (3, 4) ])

let test_qaim_fig3_heaviest_placement () =
  let device = Topologies.ibmq_20_tokyo () in
  let problem = fig3_problem () in
  for seed = 0 to 9 do
    let m = Qaim.initial_mapping (Rng.create seed) device problem in
    let p0 = Mapping.phys m 0 in
    Alcotest.(check bool) "q0 on strength-18 qubit" true (p0 = 7 || p0 = 12)
  done

let test_qaim_neighbors_clustered () =
  (* QAIM should keep logical neighbors close: mean distance between
     mapped neighbors must beat the NAIVE average by a margin. *)
  let device = Topologies.ibmq_20_tokyo () in
  let dist = Profile.hop_distances device in
  let mean_neighbor_distance m problem =
    let pairs = Problem.cphase_pairs problem in
    Qaoa_util.Stats.mean
      (List.map
         (fun (a, b) ->
           Qaoa_util.Float_matrix.get dist (Mapping.phys m a) (Mapping.phys m b))
         pairs)
  in
  let rng = Rng.create 11 in
  let totals = ref (0.0, 0.0) in
  for _ = 1 to 10 do
    let g = Generators.random_regular rng ~n:12 ~d:3 in
    let problem = Problem.of_maxcut g in
    let q = mean_neighbor_distance (Qaim.initial_mapping rng device problem) problem in
    let n = mean_neighbor_distance (Naive.initial_mapping rng device problem) problem in
    let a, b = !totals in
    totals := (a +. q, b +. n)
  done;
  let q, n = !totals in
  Alcotest.(check bool) "QAIM clusters neighbors" true (q < n)

(* --- IP --- *)

let fig4_problem () =
  (* Fig. 4(a) in 0-indexed form: {(0,4), (1,2), (0,3), (1,3)} *)
  Problem.of_maxcut (Graph.of_edges 5 [ (0, 4); (1, 2); (0, 3); (1, 3) ])

let test_ip_fig4 () =
  let problem = fig4_problem () in
  Alcotest.(check int) "MOQ = 2" 2 (Ip.minimum_layers problem);
  for seed = 0 to 9 do
    let layers = Ip.pack_layers (Rng.create seed) problem in
    Alcotest.(check int) "exactly MOQ layers" 2 (List.length layers);
    (* each layer is qubit-disjoint *)
    List.iter
      (fun layer ->
        let qs = List.concat_map (fun (a, b) -> [ a; b ]) layer in
        Alcotest.(check int) "disjoint" (List.length qs)
          (List.length (List.sort_uniq compare qs)))
      layers;
    (* all pairs covered exactly once *)
    let flat = List.sort compare (List.concat layers) in
    Alcotest.(check (list (pair int int))) "covers all"
      (Problem.cphase_pairs problem) flat
  done

let test_ip_rank () =
  let problem = fig4_problem () in
  (* ranks (Fig. 4(c)): (0,3) and (1,3) have rank 4; (0,4) and (1,2) rank 3 *)
  Alcotest.(check int) "rank (0,3)" 4 (Ip.rank problem (0, 3));
  Alcotest.(check int) "rank (0,4)" 3 (Ip.rank problem (0, 4));
  Alcotest.(check int) "rank (1,2)" 3 (Ip.rank problem (1, 2))

let test_ip_k4_meets_lower_bound () =
  (* K4 has MOQ 3 and admits a perfect 3-layer schedule *)
  let problem = Problem.of_maxcut (Generators.complete 4) in
  let layers = Ip.pack_layers (Rng.create 1) problem in
  Alcotest.(check int) "3 layers" 3 (List.length layers);
  List.iter
    (fun l -> Alcotest.(check int) "2 gates per layer" 2 (List.length l))
    layers

let test_ip_packing_limit () =
  let problem = Problem.of_maxcut (Generators.complete 4) in
  let layers = Ip.pack_layers ~packing_limit:1 (Rng.create 1) problem in
  Alcotest.(check int) "6 singleton layers" 6 (List.length layers);
  List.iter (fun l -> Alcotest.(check int) "singleton" 1 (List.length l)) layers;
  Alcotest.check_raises "limit < 1"
    (Invalid_argument "Ip.pack_layers: packing limit < 1") (fun () ->
      ignore (Ip.pack_layers ~packing_limit:0 (Rng.create 1) problem))

let prop_ip_layers_valid =
  QCheck.Test.make ~name:"IP layers: disjoint, complete, >= MOQ" ~count:50
    QCheck.(pair (int_bound 100000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.4 in
      QCheck.assume (Graph.num_edges g > 0);
      let problem = Problem.of_maxcut g in
      let layers = Ip.pack_layers rng problem in
      let disjoint =
        List.for_all
          (fun layer ->
            let qs = List.concat_map (fun (a, b) -> [ a; b ]) layer in
            List.length qs = List.length (List.sort_uniq compare qs))
          layers
      in
      let flat = List.sort compare (List.concat layers) in
      disjoint
      && flat = Problem.cphase_pairs problem
      && List.length layers >= Ip.minimum_layers problem)

(* --- IC / VIC --- *)

let test_ic_form_layer_prefers_close_pairs () =
  let device = Topologies.linear 4 in
  let dist = Profile.hop_distances device in
  (* remaining: (0,1) at distance 1, (0,3) at distance 3; both share qubit 0 *)
  let layer, rest =
    Ic.form_layer (Rng.create 1) ~dist ~phys:(fun q -> q) [ (0, 3); (0, 1) ]
  in
  Alcotest.(check (list (pair int int))) "close first" [ (0, 1) ] layer;
  Alcotest.(check (list (pair int int))) "far deferred" [ (0, 3) ] rest

let test_ic_form_layer_packing_limit () =
  let device = Topologies.linear 6 in
  let dist = Profile.hop_distances device in
  let remaining = [ (0, 1); (2, 3); (4, 5) ] in
  let layer, rest =
    Ic.form_layer ~packing_limit:2 (Rng.create 1) ~dist ~phys:(fun q -> q)
      remaining
  in
  Alcotest.(check int) "capped at 2" 2 (List.length layer);
  Alcotest.(check int) "one left" 1 (List.length rest)

(* Fig. 6(e): with the variation-aware distances, Op1 = (0,1) (success
   0.90) is chosen over Op2 = (0,5) (success 0.82) for the first layer. *)
let test_vic_fig6_layer_choice () =
  let device = Topologies.hypothetical_6q () in
  let dist = Profile.weighted_distances device in
  for seed = 0 to 9 do
    let layer, rest =
      Ic.form_layer (Rng.create seed) ~dist ~phys:(fun q -> q)
        [ (0, 5); (0, 1) ]
    in
    Alcotest.(check (list (pair int int))) "Op1 chosen" [ (0, 1) ] layer;
    Alcotest.(check (list (pair int int))) "Op2 deferred" [ (0, 5) ] rest
  done

let semantic_check device problem (r : Compile.result) =
  let logical = Ansatz.state problem params in
  let phys = Statevector.of_circuit r.Compile.circuit in
  let k = problem.Problem.num_vars in
  let ok = ref true in
  for b = 0 to (1 lsl k) - 1 do
    let pl = Statevector.probability logical b in
    let idx = ref 0 in
    for l = 0 to k - 1 do
      if b land (1 lsl l) <> 0 then
        idx := !idx lor (1 lsl (Mapping.phys r.Compile.final_mapping l))
    done;
    if Float.abs (pl -. Statevector.probability phys !idx) > 1e-9 then ok := false
  done;
  Alcotest.(check bool) "semantics preserved" true !ok;
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Compile.circuit)

let test_all_strategies_correct_on_melbourne () =
  let rng = Rng.create 9 in
  let device = Topologies.ibmq_16_melbourne () in
  let g = Generators.random_regular rng ~n:8 ~d:3 in
  let problem = Problem.of_maxcut g in
  List.iter
    (fun strategy ->
      let r = Compile.compile ~strategy device problem params in
      semantic_check device problem r;
      Alcotest.(check bool) "positive depth" true (r.Compile.metrics.Qaoa_circuit.Metrics.depth > 0))
    Compile.all_strategies

let test_strategies_deterministic_under_seed () =
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular (Rng.create 1) ~n:8 ~d:3) in
  List.iter
    (fun strategy ->
      let a = Compile.compile ~strategy device problem params in
      let b = Compile.compile ~strategy device problem params in
      Alcotest.(check bool)
        (Compile.strategy_name strategy ^ " deterministic")
        true
        (Circuit.equal a.Compile.circuit b.Compile.circuit))
    Compile.all_strategies

let test_ic_multilevel () =
  let rng = Rng.create 13 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:6 ~d:3) in
  let p2 = { Ansatz.gammas = [| 0.7; 0.3 |]; betas = [| 0.4; 0.6 |] } in
  let initial = Qaim.initial_mapping rng device problem in
  let r = Ic.compile rng device ~initial problem p2 in
  Alcotest.(check bool) "compliant" true
    (Compliance.is_compliant device r.Qaoa_backend.Router.circuit);
  (* semantics against the logical 2-level ansatz *)
  let logical = Ansatz.state problem p2 in
  let phys = Statevector.of_circuit r.Qaoa_backend.Router.circuit in
  let ok = ref true in
  for b = 0 to (1 lsl 6) - 1 do
    let idx = ref 0 in
    for l = 0 to 5 do
      if b land (1 lsl l) <> 0 then
        idx :=
          !idx lor (1 lsl (Mapping.phys r.Qaoa_backend.Router.final_mapping l))
    done;
    if
      Float.abs
        (Statevector.probability logical b
        -. Statevector.probability phys !idx)
      > 1e-9
    then ok := false
  done;
  Alcotest.(check bool) "2-level semantics" true !ok

let test_ic_cphase_count_preserved () =
  let rng = Rng.create 15 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.erdos_renyi rng ~n:10 ~p:0.4) in
  let initial = Qaim.initial_mapping rng device problem in
  let r = Ic.compile rng device ~initial problem params in
  let cphases =
    List.length
      (List.filter
         (function Gate.Cphase _ -> true | _ -> false)
         (Circuit.gates r.Qaoa_backend.Router.circuit))
  in
  Alcotest.(check int) "one cphase per edge"
    (List.length (Problem.cphase_pairs problem))
    cphases

let test_vic_requires_calibration () =
  let rng = Rng.create 17 in
  let device = Topologies.ibmq_20_tokyo () in
  let problem = Problem.of_maxcut (Generators.complete 4) in
  let initial = Qaim.initial_mapping rng device problem in
  Alcotest.check_raises "no calibration"
    (Invalid_argument "ibmq_20_tokyo: device has no calibration data")
    (fun () ->
      ignore
        (Ic.compile
           ~config:{ Ic.default_config with variation_aware = true }
           rng device ~initial problem params))

let test_strategy_parsing () =
  Alcotest.(check bool) "naive" true (Compile.strategy_of_string "NAIVE" = Some Compile.Naive);
  Alcotest.(check bool) "ic" true (Compile.strategy_of_string "ic" = Some (Compile.Ic None));
  Alcotest.(check bool) "vic" true (Compile.strategy_of_string "Vic" = Some (Compile.Vic None));
  Alcotest.(check bool) "vqa" true (Compile.strategy_of_string "vqa" = Some Compile.Vqa_alloc);
  Alcotest.(check bool) "unknown" true (Compile.strategy_of_string "zzz" = None);
  Alcotest.(check string) "name roundtrip" "IC(limit=3)"
    (Compile.strategy_name (Compile.Ic (Some 3)))

(* --- Success probability --- *)

let test_success_probability_manual () =
  let cal = Calibration.create ~single_qubit_error:0.01 [ (0, 1, 0.1); (1, 2, 0.2) ] in
  let c =
    Circuit.of_gates 3
      [ Gate.H 0; Gate.Cphase (0, 1, 0.5); Gate.Cnot (1, 2); Gate.Measure 0 ]
  in
  (* h: 0.99; cphase -> cx rz cx: 0.9 * 0.99 * 0.9; cx(1,2): 0.8 *)
  let expected = 0.99 *. (0.9 *. 0.99 *. 0.9) *. 0.8 in
  Alcotest.(check (float 1e-12)) "product" expected (Success.of_circuit cal c);
  (* agrees with the noise model's analytic value *)
  Alcotest.(check (float 1e-12)) "matches noise model" expected
    (Qaoa_sim.Noise.expected_success_probability (Qaoa_sim.Noise.create cal) c)

let test_success_readout () =
  let cal =
    Calibration.create ~single_qubit_error:0.0 ~readout_error:0.1 [ (0, 1, 0.0) ]
  in
  let c = Circuit.of_gates 2 [ Gate.Measure 0; Gate.Measure 1 ] in
  Alcotest.(check (float 1e-12)) "without readout" 1.0 (Success.of_circuit cal c);
  Alcotest.(check (float 1e-12)) "with readout" 0.81
    (Success.of_circuit ~include_readout:true cal c)

let test_vic_beats_ic_on_success () =
  (* Aggregate over instances: VIC circuits should be at least as
     reliable as IC circuits on melbourne's skewed calibration. *)
  let device = Topologies.ibmq_16_melbourne () in
  let rng = Rng.create 21 in
  let ratios = ref [] in
  for seed = 0 to 11 do
    let g = Generators.erdos_renyi rng ~n:10 ~p:0.5 in
    if Graph.num_edges g > 0 then begin
      let problem = Problem.of_maxcut g in
      let options = { Compile.default_options with seed } in
      let ic = Compile.compile ~options ~strategy:(Compile.Ic None) device problem params in
      let vic = Compile.compile ~options ~strategy:(Compile.Vic None) device problem params in
      let s_ic = Compile.success_probability device ic in
      let s_vic = Compile.success_probability device vic in
      ratios := (s_vic /. s_ic) :: !ratios
    end
  done;
  let mean_ratio = Qaoa_util.Stats.mean !ratios in
  Alcotest.(check bool)
    (Printf.sprintf "VIC/IC success ratio %.3f >= 1" mean_ratio)
    true (mean_ratio >= 1.0)

(* --- ARG --- *)

let test_arg_zero_noise () =
  let rng = Rng.create 23 in
  let coupling_edges = Topologies.ibmq_16_melbourne () |> Device.coupling_edges in
  let noiseless_cal =
    Calibration.create ~single_qubit_error:0.0 ~readout_error:0.0
      (List.map (fun (u, v) -> (u, v, 0.0)) coupling_edges)
  in
  let device =
    Device.with_calibration (Topologies.ibmq_16_melbourne ()) noiseless_cal
  in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:8 ~d:3) in
  let r = Compile.compile ~strategy:(Compile.Ic None) device problem params in
  let report = Arg.evaluate ~shots:8192 rng device problem params r in
  Alcotest.(check bool)
    (Printf.sprintf "ARG ~ 0 under zero noise (got %.2f%%)" report.Arg.arg_percent)
    true
    (Float.abs report.Arg.arg_percent < 5.0)

let test_arg_noise_hurts () =
  let rng = Rng.create 25 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:8 ~d:3) in
  let r = Compile.compile ~strategy:(Compile.Ic None) device problem params in
  let report = Arg.evaluate ~shots:4096 rng device problem params r in
  Alcotest.(check bool) "hardware ratio below ideal" true
    (report.Arg.hardware_ratio < report.Arg.ideal_ratio);
  Alcotest.(check bool) "positive ARG" true (report.Arg.arg_percent > 0.0)

let test_arg_readout_mitigation_helps () =
  (* melbourne's calibration carries 3% readout error; unfolding it must
     close part of the gap *)
  let rng = Rng.create 29 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:8 ~d:3) in
  let r = Compile.compile ~strategy:(Compile.Ic None) device problem params in
  let plain =
    Arg.evaluate ~shots:8192 (Rng.create 1) device problem params r
  in
  let mitigated =
    Arg.evaluate ~shots:8192 ~mitigate_readout:true (Rng.create 1) device
      problem params r
  in
  Alcotest.(check bool)
    (Printf.sprintf "mitigated ARG %.2f < plain ARG %.2f"
       mitigated.Arg.arg_percent plain.Arg.arg_percent)
    true
    (mitigated.Arg.arg_percent < plain.Arg.arg_percent)

(* --- Crosstalk --- *)

let test_crosstalk_sequentialization () =
  (* two hot gates in the same ASAP layer must be separated *)
  let c =
    Circuit.of_gates 4 [ Gate.Cnot (0, 1); Gate.Cnot (2, 3) ]
  in
  let hot = [ (0, 1); (2, 3) ] in
  let seq, stats = Crosstalk.apply_with_stats ~high_crosstalk:hot c in
  Alcotest.(check int) "one conflict" 1 stats.Crosstalk.conflicts;
  Alcotest.(check int) "depth before" 1 stats.Crosstalk.depth_before;
  Alcotest.(check int) "depth after" 2 stats.Crosstalk.depth_after;
  (* no layer of the result holds two hot gates *)
  let layers = Layering.layers seq in
  List.iter
    (fun layer ->
      let hot_count =
        List.length
          (List.filter
             (fun g ->
               match Gate.qubits g with
               | [ a; b ] -> List.mem (min a b, max a b) hot
               | _ -> false)
             layer)
      in
      Alcotest.(check bool) "at most one hot gate" true (hot_count <= 1))
    layers

let test_crosstalk_no_conflict_unchanged () =
  let c = Circuit.of_gates 4 [ Gate.Cnot (0, 1); Gate.Cnot (2, 3) ] in
  let seq, stats = Crosstalk.apply_with_stats ~high_crosstalk:[ (0, 1) ] c in
  Alcotest.(check int) "no conflicts" 0 stats.Crosstalk.conflicts;
  Alcotest.(check int) "same depth" stats.Crosstalk.depth_before
    stats.Crosstalk.depth_after;
  Alcotest.(check int) "same gates" (Circuit.length c) (Circuit.length seq)

let test_crosstalk_preserves_semantics () =
  let rng = Rng.create 27 in
  let device = Topologies.ibmq_16_melbourne () in
  let problem = Problem.of_maxcut (Generators.random_regular rng ~n:8 ~d:3) in
  let r = Compile.compile ~strategy:Compile.Ip device problem params in
  let hot = [ (0, 1); (1, 2); (2, 3) ] in
  let seq = Crosstalk.sequentialize ~high_crosstalk:hot r.Compile.circuit in
  Alcotest.(check bool) "same state" true
    (Statevector.equal_up_to_global_phase
       (Statevector.of_circuit r.Compile.circuit)
       (Statevector.of_circuit seq))

(* QCheck: every strategy yields a compliant circuit whose CPHASE count
   matches the problem on random instances. *)
let prop_compile_invariants =
  QCheck.Test.make ~name:"compile: compliant and gate-complete" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 4 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let device = Topologies.ibmq_16_melbourne () in
      let g = Generators.erdos_renyi rng ~n ~p:0.4 in
      QCheck.assume (Graph.num_edges g > 0);
      let problem = Problem.of_maxcut g in
      let options = { Compile.default_options with seed } in
      List.for_all
        (fun strategy ->
          let r = Compile.compile ~options ~strategy device problem params in
          Compliance.is_compliant device r.Compile.circuit
          && List.length
               (List.filter
                  (function Gate.Cphase _ -> true | _ -> false)
                  (Circuit.gates r.Compile.circuit))
             = List.length (Problem.cphase_pairs problem))
        Compile.all_strategies)

let suite =
  [
    ("mappers valid", `Quick, test_mappers_valid);
    ("mappers with isolated vertices", `Quick, test_mappers_with_isolated_vertices);
    ("qaim too large", `Quick, test_qaim_too_large);
    ("qaim fig.3 heaviest placement", `Quick, test_qaim_fig3_heaviest_placement);
    ("qaim clusters neighbors", `Quick, test_qaim_neighbors_clustered);
    ("ip fig.4 example", `Quick, test_ip_fig4);
    ("ip ranks", `Quick, test_ip_rank);
    ("ip K4 lower bound", `Quick, test_ip_k4_meets_lower_bound);
    ("ip packing limit", `Quick, test_ip_packing_limit);
    ("ic form_layer distance order", `Quick, test_ic_form_layer_prefers_close_pairs);
    ("ic form_layer packing limit", `Quick, test_ic_form_layer_packing_limit);
    ("vic fig.6 layer choice", `Quick, test_vic_fig6_layer_choice);
    ("all strategies correct", `Slow, test_all_strategies_correct_on_melbourne);
    ("strategies deterministic", `Quick, test_strategies_deterministic_under_seed);
    ("ic multilevel", `Quick, test_ic_multilevel);
    ("ic cphase count preserved", `Quick, test_ic_cphase_count_preserved);
    ("vic requires calibration", `Quick, test_vic_requires_calibration);
    ("strategy parsing", `Quick, test_strategy_parsing);
    ("success probability manual", `Quick, test_success_probability_manual);
    ("success readout", `Quick, test_success_readout);
    ("vic beats ic on success", `Slow, test_vic_beats_ic_on_success);
    ("arg zero noise", `Slow, test_arg_zero_noise);
    ("arg noise hurts", `Slow, test_arg_noise_hurts);
    ("arg readout mitigation helps", `Slow, test_arg_readout_mitigation_helps);
    ("crosstalk sequentialization", `Quick, test_crosstalk_sequentialization);
    ("crosstalk no conflict", `Quick, test_crosstalk_no_conflict_unchanged);
    ("crosstalk preserves semantics", `Quick, test_crosstalk_preserves_semantics);
    QCheck_alcotest.to_alcotest prop_compile_invariants;
  ]
