(* Tests for classical MaxCut/Ising baselines and the CSV exporter. *)

module Problem = Qaoa_core.Problem
module Classical = Qaoa_core.Classical
module Export = Qaoa_experiments.Export
module Experiment = Qaoa_experiments.Experiment
module Report = Qaoa_experiments.Report
module Generators = Qaoa_graph.Generators
module Rng = Qaoa_util.Rng

let test_flip_delta_matches_recomputation () =
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    let g = Generators.erdos_renyi rng ~n:8 ~p:0.5 in
    let problem =
      Problem.create ~num_vars:8
        ~linear:[ (0, 0.7); (3, -0.4) ]
        (List.map (fun (u, v) -> (u, v, Rng.float rng 2.0 -. 1.0)) (Qaoa_graph.Graph.edges g))
    in
    let bits = Rng.int rng 256 in
    for i = 0 to 7 do
      let delta = Classical.flip_delta problem bits i in
      let direct =
        Problem.cost problem (bits lxor (1 lsl i)) -. Problem.cost problem bits
      in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "delta bit %d" i) direct delta
    done
  done

let test_local_search_reaches_local_optimum () =
  let rng = Rng.create 2 in
  let g = Generators.random_regular rng ~n:12 ~d:3 in
  let problem = Problem.of_maxcut g in
  let bits, cost = Classical.local_search rng problem in
  Alcotest.(check (float 1e-9)) "cost consistent" cost (Problem.cost problem bits);
  (* no single flip improves *)
  for i = 0 to 11 do
    Alcotest.(check bool) "locally optimal" true
      (Classical.flip_delta problem bits i <= 1e-9)
  done

let test_baselines_on_known_optimum () =
  (* C6's MaxCut is 6 and easy for every baseline *)
  let problem = Problem.of_maxcut (Generators.cycle 6) in
  let rng = Rng.create 3 in
  let _, ls = Classical.local_search rng problem in
  let _, sa = Classical.simulated_annealing rng problem in
  Alcotest.(check (float 1e-9)) "local search optimal" 6.0 ls;
  Alcotest.(check (float 1e-9)) "annealing optimal" 6.0 sa

let test_sa_beats_random () =
  let rng = Rng.create 4 in
  let total_sa = ref 0.0 and total_rand = ref 0.0 in
  for seed = 0 to 4 do
    let g = Generators.erdos_renyi (Rng.create seed) ~n:14 ~p:0.4 in
    if Qaoa_graph.Graph.num_edges g > 0 then begin
      let problem = Problem.of_maxcut g in
      let _, sa = Classical.simulated_annealing rng problem in
      let _, rand = Classical.random_sampling rng ~samples:64 problem in
      total_sa := !total_sa +. sa;
      total_rand := !total_rand +. rand
    end
  done;
  Alcotest.(check bool) "annealing >= weak random baseline" true
    (!total_sa >= !total_rand)

let test_baselines_match_bruteforce_small () =
  let rng = Rng.create 5 in
  for seed = 0 to 4 do
    let g = Generators.erdos_renyi (Rng.create (100 + seed)) ~n:10 ~p:0.5 in
    let problem = Problem.of_maxcut g in
    let _, optimum = Problem.brute_force_best problem in
    let _, sa = Classical.simulated_annealing rng problem in
    Alcotest.(check bool)
      (Printf.sprintf "SA %.0f near optimum %.0f" sa optimum)
      true
      (sa >= optimum -. 1.0)
  done

let test_edge_cases () =
  let empty = Problem.create ~num_vars:0 [] in
  let rng = Rng.create 6 in
  let _, c = Classical.simulated_annealing rng empty in
  Alcotest.(check (float 1e-12)) "empty problem" 0.0 c;
  let constant = Problem.create ~num_vars:2 ~constant:5.0 [] in
  let _, c2 = Classical.local_search rng constant in
  Alcotest.(check (float 1e-12)) "constant objective" 5.0 c2

(* --- Export --- *)

let test_csv_format () =
  let csv =
    Export.csv_of_rows ~columns:[ "a"; "b" ]
      [ ("row1", [ 1.5; 2.0 ]); ("ro,w2", [ 3.25 ]) ]
  in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "workload,a,b" (List.nth lines 0);
  Alcotest.(check string) "row1" "row1,1.5,2" (List.nth lines 1);
  Alcotest.(check string) "quoted label + padding" "\"ro,w2\",3.25," (List.nth lines 2)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Export.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Export.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Export.escape_field "a\"b")

let test_csv_too_many_values () =
  Alcotest.check_raises "overflow"
    (Invalid_argument "Export.csv_of_rows: too many values") (fun () ->
      ignore (Export.csv_of_rows ~columns:[ "a" ] [ ("x", [ 1.0; 2.0 ]) ]))

let test_csv_nan_blank () =
  let csv = Export.csv_of_rows ~columns:[ "a" ] [ ("x", [ Float.nan ]) ] in
  Alcotest.(check string) "nan blank" "x," (List.nth (String.split_on_char '\n' csv) 1)

let test_write_and_export_all () =
  let dir = Filename.temp_file "qaoa_export" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let record id columns rows =
    Experiment.make Experiment.Figure id ~title:id ~columns ~notes:[]
      (fun ~scale:_ ~journal:_ -> rows)
  in
  ignore
    (Report.run ~export:dir ~scale:Experiment.Smoke
       [ record "t1" [ "a" ] [ ("x", [ 1.0 ]) ]; record "t2" [ "b" ] [] ]);
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string)) "two files and the report"
    [ "report.md"; "t1.csv"; "t2.csv" ] files;
  let ic = open_in (Filename.concat dir "t1.csv") in
  let header = input_line ic in
  close_in ic;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir;
  Alcotest.(check string) "header" "workload,v0" header

let suite =
  [
    ("flip delta exact", `Quick, test_flip_delta_matches_recomputation);
    ("local search local optimum", `Quick, test_local_search_reaches_local_optimum);
    ("baselines on C6", `Quick, test_baselines_on_known_optimum);
    ("annealing beats random", `Quick, test_sa_beats_random);
    ("annealing near brute force", `Slow, test_baselines_match_bruteforce_small);
    ("edge cases", `Quick, test_edge_cases);
    ("csv format", `Quick, test_csv_format);
    ("csv escaping", `Quick, test_csv_escaping);
    ("csv too many values", `Quick, test_csv_too_many_values);
    ("csv nan blank", `Quick, test_csv_nan_blank);
    ("write and export all", `Quick, test_write_and_export_all);
  ]
