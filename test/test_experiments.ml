(* Tests for the experiments harness: workload generation, the runner's
   aggregation, and smoke-scale figure regeneration (shape sanity). *)

module Workload = Qaoa_experiments.Workload
module Runner = Qaoa_experiments.Runner
module Experiment = Qaoa_experiments.Experiment
module Figures = Qaoa_experiments.Figures
module Ablations = Qaoa_experiments.Ablations
module Export = Qaoa_experiments.Export
module Problem = Qaoa_core.Problem
module Compile = Qaoa_core.Compile
module Topologies = Qaoa_hardware.Topologies
module Graph = Qaoa_graph.Graph
module Rng = Qaoa_util.Rng

let test_workload_kinds () =
  Alcotest.(check string) "er name" "ER(p=0.5)"
    (Workload.kind_name (Workload.Erdos_renyi 0.5));
  Alcotest.(check string) "regular name" "6-regular"
    (Workload.kind_name (Workload.Regular 6));
  Alcotest.(check string) "gnm name" "G(n,m=8)" (Workload.kind_name (Workload.Gnm 8))

let test_workload_generation () =
  let rng = Rng.create 1 in
  let ps = Workload.problems rng (Workload.Regular 3) ~n:10 ~count:5 in
  Alcotest.(check int) "count" 5 (List.length ps);
  List.iter
    (fun p ->
      Alcotest.(check int) "vars" 10 p.Problem.num_vars;
      Alcotest.(check int) "3-regular edge count" 15
        (List.length (Problem.cphase_pairs p)))
    ps;
  let gnm = Workload.problems rng (Workload.Gnm 8) ~n:8 ~count:3 in
  List.iter
    (fun p ->
      Alcotest.(check int) "8 edges" 8 (List.length (Problem.cphase_pairs p)))
    gnm

let test_workload_no_empty_graphs () =
  let rng = Rng.create 2 in
  (* p = 0.02 on 6 nodes draws empty graphs often; problems must redraw *)
  let ps = Workload.problems rng (Workload.Erdos_renyi 0.02) ~n:6 ~count:10 in
  List.iter
    (fun p ->
      Alcotest.(check bool) "non-empty" true
        (List.length (Problem.cphase_pairs p) > 0))
    ps

let test_runner_aggregation () =
  let device = Topologies.ibmq_16_melbourne () in
  let rng = Rng.create 3 in
  let problems = Workload.problems rng (Workload.Regular 3) ~n:8 ~count:4 in
  let res =
    Runner.run ~device
      ~strategies:[ Compile.Naive; Compile.Ic None ]
      ~params:Workload.default_params problems
  in
  Alcotest.(check int) "two aggregates" 2 (List.length res);
  let naive = Runner.find res Compile.Naive in
  Alcotest.(check int) "instances recorded" 4 naive.Runner.instances;
  Alcotest.(check bool) "positive depth" true (naive.Runner.mean_depth > 0.0);
  Alcotest.(check bool) "success present (calibrated device)" true
    (Option.is_some naive.Runner.mean_success);
  (* ratio accessor *)
  let r =
    Runner.ratio res ~num:(Compile.Ic None) ~den:Compile.Naive (fun a ->
        a.Runner.mean_depth)
  in
  Alcotest.(check bool) "ratio finite" true (Float.is_finite r);
  Alcotest.check_raises "missing strategy"
    (Failure
       "Runner.find: strategy IP has no aggregate (aggregates cover: NAIVE, \
        IC)")
    (fun () -> ignore (Runner.find res Compile.Ip))

let test_runner_uncalibrated_success_none () =
  let device = Topologies.ibmq_20_tokyo () in
  let rng = Rng.create 4 in
  let problems = Workload.problems rng (Workload.Regular 3) ~n:8 ~count:2 in
  let res =
    Runner.run ~device ~strategies:[ Compile.Qaim ]
      ~params:Workload.default_params problems
  in
  Alcotest.(check bool) "no success metric" true
    (Option.is_none (Runner.find res Compile.Qaim).Runner.mean_success)

let test_scale_parsing () =
  Alcotest.(check bool) "smoke" true (Experiment.scale_of_string "smoke" = Some Experiment.Smoke);
  Alcotest.(check bool) "full" true (Experiment.scale_of_string "FULL" = Some Experiment.Full);
  Alcotest.(check bool) "bad" true (Experiment.scale_of_string "huge" = None);
  Alcotest.(check string) "name" "default" (Experiment.scale_name Experiment.Default)

(* Smoke-scale runs of the experiment records: rows present, values
   finite and positive where they must be.  These run the full
   reproduction machinery. *)

let experiments = Figures.all @ Ablations.all

(* MD5 of the exported smoke-scale CSV bytes of the records without a
   time column, pinned so a refactor cannot move a figure. *)
let pinned_csv_md5 =
  [
    ("fig7", "4ee452774096b9d3e14b421d28959541");
    ("fig8", "60beb560e0c0589b2c9827f30a4a92b2");
    ("qaoa-levels", "9634afd55e13361fae3fdc31bb23f58b");
  ]

(* Run one record at smoke scale and check what every record keeps:
   ids are unique across figures and ablations, each row has one value
   per named column, and a pinned CSV has its digest. *)
let smoke id =
  let ids = List.map (fun e -> e.Experiment.id) experiments in
  Alcotest.(check int) "ids unique across figures and ablations"
    (List.length ids) (List.length (List.sort_uniq compare ids));
  let e = List.find (fun e -> e.Experiment.id = id) experiments in
  let rows = e.Experiment.run ~scale:Experiment.Smoke ~journal:None in
  List.iter
    (fun (label, vs) ->
      Alcotest.(check int) (label ^ ": one value per column")
        (List.length e.Experiment.columns) (List.length vs))
    rows;
  Option.iter
    (fun md5 ->
      let columns = List.mapi (fun i _ -> Printf.sprintf "v%d" i) e.Experiment.columns in
      Alcotest.(check string) (id ^ " CSV digest") md5
        (Digest.to_hex (Digest.string (Export.csv_of_rows ~columns rows))))
    (List.assoc_opt id pinned_csv_md5);
  rows

let finite_positive rows =
  List.for_all
    (fun (_, vs) -> List.for_all (fun v -> Float.is_finite v && v > 0.0) vs)
    rows

let test_fig7_smoke () =
  let rows = smoke "fig7" in
  Alcotest.(check int) "12 workloads" 12 (List.length rows);
  Alcotest.(check bool) "finite" true (finite_positive rows)

let test_fig8_smoke () =
  let rows = smoke "fig8" in
  Alcotest.(check int) "5 sizes" 5 (List.length rows);
  Alcotest.(check bool) "finite" true (finite_positive rows)

let test_fig9_smoke () =
  let rows = smoke "fig9" in
  Alcotest.(check int) "12 workloads" 12 (List.length rows);
  Alcotest.(check bool) "finite" true (finite_positive rows)

let test_fig10_smoke () =
  let rows = smoke "fig10" in
  Alcotest.(check int) "6 rows" 6 (List.length rows);
  Alcotest.(check bool) "finite" true (finite_positive rows)

let test_fig11a_smoke () =
  let rows = smoke "fig11a" in
  Alcotest.(check int) "5 strategies" 5 (List.length rows);
  (match rows with
  | ("NAIVE", [ d; g; t ]) :: _ ->
    Alcotest.(check (float 1e-9)) "naive depth normalized" 1.0 d;
    Alcotest.(check (float 1e-9)) "naive gates normalized" 1.0 g;
    Alcotest.(check (float 1e-9)) "naive time normalized" 1.0 t
  | _ -> Alcotest.fail "NAIVE row first");
  Alcotest.(check bool) "finite" true (finite_positive rows)

let test_fig12_smoke () =
  let rows = smoke "fig12" in
  Alcotest.(check int) "2 limits at smoke" 2 (List.length rows);
  (* tighter packing limits must not reduce gate order of magnitude *)
  Alcotest.(check bool) "finite" true
    (List.for_all
       (fun (_, vs) -> List.for_all (fun v -> Float.is_finite v && v >= 0.0) vs)
       rows)

let test_ring8_smoke () =
  let rows = smoke "ring8" in
  (match rows with
  | [ ("IC(+QAIM)", [ depth; gates; time ]) ] ->
    Alcotest.(check bool) "depth sane" true (depth > 5.0 && depth < 200.0);
    Alcotest.(check bool) "gates sane" true (gates > 10.0 && gates < 500.0);
    Alcotest.(check bool) "time well under the planner's 70 s" true (time < 1.0)
  | _ -> Alcotest.fail "expected a single IC row")

(* Determinism: the same seed and scale reproduce identical circuit
   metrics (wall-clock columns naturally vary, so drop the last column). *)
let test_figures_deterministic () =
  let structural rows =
    List.map
      (fun (label, vs) ->
        (label, List.filteri (fun i _ -> i < 2) vs))
      rows
  in
  let a = smoke "ring8" in
  let b = smoke "ring8" in
  Alcotest.(check bool) "identical" true (structural a = structural b)

(* --- Ablations (smoke scale) --- *)

let test_ablation_reverse_traversal_monotone_ish () =
  let rows = smoke "reverse-traversal" in
  Alcotest.(check int) "5 settings" 5 (List.length rows);
  (* 3 refinement iterations must not exceed the unrefined swap count *)
  let swaps_at i = List.nth (snd (List.nth rows i)) 0 in
  Alcotest.(check bool) "refined <= unrefined" true (swaps_at 3 <= swaps_at 0)

let test_ablation_peephole_never_hurts () =
  let rows = smoke "peephole" in
  List.iter
    (fun (label, vs) ->
      match vs with
      | [ off; on; reduction ] ->
        Alcotest.(check bool) (label ^ " no increase") true (on <= off);
        Alcotest.(check bool) (label ^ " reduction >= 0") true (reduction >= 0.0)
      | _ -> Alcotest.fail "expected three columns")
    rows

let test_ablation_levels_monotone () =
  let rows = smoke "qaoa-levels" in
  match rows with
  | [ (_, [ d1; g1 ]); (_, [ d2; g2 ]); (_, [ d3; g3 ]) ] ->
    Alcotest.(check bool) "depth grows with p" true (d1 < d2 && d2 < d3);
    Alcotest.(check bool) "gates grow with p" true (g1 < g2 && g2 < g3)
  | _ -> Alcotest.fail "expected three p rows"

let test_ablation_crosstalk_overhead_monotone () =
  let rows = smoke "crosstalk" in
  let depth_at i = List.nth (snd (List.nth rows i)) 0 in
  (* sequentializing more couplings can only add depth *)
  Alcotest.(check bool) "monotone overhead" true
    (depth_at 0 <= depth_at 3 +. 1e-9)

let test_ablation_mapper_shootout_shape () =
  let rows = smoke "mapper-shootout" in
  Alcotest.(check int) "5 mappers" 5 (List.length rows);
  List.iter
    (fun (_, vs) ->
      List.iter
        (fun v -> Alcotest.(check bool) "positive" true (v > 0.0))
        vs)
    rows

let test_ablation_graph_families_shape () =
  let rows = smoke "graph-families" in
  Alcotest.(check int) "four families" 4 (List.length rows);
  List.iter
    (fun (_, vs) ->
      List.iter
        (fun v -> Alcotest.(check bool) "finite positive" true (Float.is_finite v && v > 0.0))
        vs)
    rows

let test_workload_new_families () =
  let rng = Rng.create 77 in
  Alcotest.(check string) "ba name" "BA(m=2)"
    (Workload.kind_name (Workload.Barabasi_albert 2));
  Alcotest.(check string) "ws name" "WS(k=4,b=0.3)"
    (Workload.kind_name (Workload.Watts_strogatz (4, 0.3)));
  List.iter
    (fun kind ->
      let ps = Workload.problems rng kind ~n:12 ~count:2 in
      List.iter
        (fun p ->
          Alcotest.(check bool) "has edges" true
            (List.length (Problem.cphase_pairs p) > 0))
        ps)
    [ Workload.Barabasi_albert 2; Workload.Watts_strogatz (4, 0.3) ]

let test_ablation_iterative_never_worse () =
  let rows = smoke "iterative" in
  match rows with
  | [ (_, [ d_single; _ ]); (_, [ d_iter; _ ]) ] ->
    Alcotest.(check bool) "iterated depth <= single" true (d_iter <= d_single)
  | _ -> Alcotest.fail "expected two rows"

let suite =
  [
    ("workload kinds", `Quick, test_workload_kinds);
    ("workload generation", `Quick, test_workload_generation);
    ("workload redraws empty graphs", `Quick, test_workload_no_empty_graphs);
    ("runner aggregation", `Quick, test_runner_aggregation);
    ("runner without calibration", `Quick, test_runner_uncalibrated_success_none);
    ("scale parsing", `Quick, test_scale_parsing);
    ("fig7 smoke", `Slow, test_fig7_smoke);
    ("fig8 smoke", `Slow, test_fig8_smoke);
    ("fig9 smoke", `Slow, test_fig9_smoke);
    ("fig10 smoke", `Slow, test_fig10_smoke);
    ("fig11a smoke", `Slow, test_fig11a_smoke);
    ("fig12 smoke", `Slow, test_fig12_smoke);
    ("ring8 smoke", `Quick, test_ring8_smoke);
    ("figures deterministic", `Quick, test_figures_deterministic);
    ("ablation: reverse traversal", `Slow, test_ablation_reverse_traversal_monotone_ish);
    ("ablation: peephole never hurts", `Slow, test_ablation_peephole_never_hurts);
    ("ablation: levels monotone", `Slow, test_ablation_levels_monotone);
    ("ablation: crosstalk overhead", `Slow, test_ablation_crosstalk_overhead_monotone);
    ("ablation: mapper shootout", `Slow, test_ablation_mapper_shootout_shape);
    ("ablation: iterative never worse", `Slow, test_ablation_iterative_never_worse);
    ("ablation: graph families", `Slow, test_ablation_graph_families_shape);
    ("workload: new families", `Quick, test_workload_new_families);
  ]
