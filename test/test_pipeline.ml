(* Whole-pipeline fuzzing: random problems x devices x strategies x
   seeds, checking the compilation invariants that must hold regardless
   of inputs, plus report-generation round trips. *)

module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Metrics = Qaoa_circuit.Metrics
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Compliance = Qaoa_backend.Compliance
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Workload = Qaoa_experiments.Workload
module Experiment = Qaoa_experiments.Experiment
module Figures = Qaoa_experiments.Figures
module Ablations = Qaoa_experiments.Ablations
module Report = Qaoa_experiments.Report
module Rng = Qaoa_util.Rng

let devices =
  lazy
    [
      Topologies.ibmq_16_melbourne ();
      Device.with_random_calibration (Rng.create 99) (Topologies.ibmq_20_tokyo ());
      Device.with_random_calibration (Rng.create 98) (Topologies.heavy_hex_27 ());
      Device.with_random_calibration (Rng.create 97) (Topologies.grid_6x6 ());
    ]

let kinds =
  [
    Workload.Erdos_renyi 0.3;
    Workload.Regular 3;
    Workload.Barabasi_albert 2;
    Workload.Watts_strogatz (4, 0.2);
  ]

(* consistency of the metrics record with the circuit itself *)
let metrics_consistent (r : Compile.result) problem =
  let gates = Circuit.gates r.Compile.circuit in
  let count p = List.length (List.filter p gates) in
  let cphases = count (function Gate.Cphase _ -> true | _ -> false) in
  let swaps = count (function Gate.Swap _ -> true | _ -> false) in
  let cnots = count (function Gate.Cnot _ -> true | _ -> false) in
  let m = r.Compile.metrics in
  cphases = List.length (Problem.cphase_pairs problem)
  && swaps = r.Compile.swap_count
  && m.Metrics.two_qubit_count = (2 * cphases) + (3 * swaps) + cnots
  && m.Metrics.depth > 0
  && m.Metrics.depth <= m.Metrics.gate_count + m.Metrics.measure_count

let prop_pipeline_invariants =
  QCheck.Test.make ~name:"pipeline invariants across devices/strategies"
    ~count:40
    QCheck.(
      quad (int_bound 100000) (int_bound 3) (int_bound 3) (int_range 6 12))
    (fun (seed, device_i, kind_i, n) ->
      let device = List.nth (Lazy.force devices) device_i in
      let kind = List.nth kinds kind_i in
      (* regular workloads need n * d even *)
      let n = match kind with Workload.Regular d when n * d mod 2 = 1 -> n + 1 | _ -> n in
      let rng = Rng.create seed in
      let problem = List.hd (Workload.problems rng kind ~n ~count:1) in
      let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
      let options = { Compile.default_options with seed } in
      List.for_all
        (fun strategy ->
          let r = Compile.compile ~options ~strategy device problem params in
          Compliance.is_compliant device r.Compile.circuit
          && metrics_consistent r problem)
        Compile.all_strategies)

let prop_pipeline_deterministic =
  QCheck.Test.make ~name:"pipeline deterministic under fixed seed" ~count:20
    QCheck.(pair (int_bound 100000) (int_range 6 10))
    (fun (seed, n) ->
      let device = Topologies.ibmq_16_melbourne () in
      let problem =
        List.hd
          (Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:(2 * (n / 2))
             ~count:1)
      in
      let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
      let options = { Compile.default_options with seed } in
      List.for_all
        (fun strategy ->
          let a = Compile.compile ~options ~strategy device problem params in
          let b = Compile.compile ~options ~strategy device problem params in
          Circuit.equal a.Compile.circuit b.Compile.circuit)
        [ Compile.Qaim; Compile.Ip; Compile.Ic None; Compile.Vic None ])

let prop_peephole_end_to_end =
  QCheck.Test.make ~name:"peephole option never hurts and stays compliant"
    ~count:20
    QCheck.(pair (int_bound 100000) (int_range 6 10))
    (fun (seed, n) ->
      let device = Topologies.ibmq_16_melbourne () in
      let problem =
        List.hd
          (Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.4) ~n
             ~count:1)
      in
      let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4 in
      let plain =
        Compile.compile
          ~options:{ Compile.default_options with seed }
          ~strategy:(Compile.Ic None) device problem params
      in
      let opt =
        Compile.compile
          ~options:{ Compile.default_options with seed; peephole = true }
          ~strategy:(Compile.Ic None) device problem params
      in
      Compliance.is_compliant device opt.Compile.circuit
      && opt.Compile.metrics.Metrics.gate_count
         <= plain.Compile.metrics.Metrics.gate_count)

(* --- report generation --- *)

(* Runs [Report.run] with an export directory and returns the ids and
   rows it returned, and the contents of the named files, leaving no
   directory behind. *)
let export_files records names =
  let dir = Filename.temp_file "qaoa_report" "" in
  Sys.remove dir;
  let results = Report.run ~export:dir ~scale:Experiment.Smoke records in
  let read name =
    In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  in
  let contents = List.map read names in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir;
  (List.map (fun (e, rows) -> (e.Experiment.id, rows)) results, contents)

let contains ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

(* A figure the paper has, from its own record: the section carries the
   record's heading, every column name and one "> paper:" line per
   note, with no second copy of that metadata to consult. *)
let test_report_section_known () =
  let fig10 = List.find (fun e -> e.Experiment.id = "fig10") Figures.all in
  Alcotest.(check bool) "paper notes present" true (fig10.Experiment.notes <> []);
  let values = List.map (fun _ -> 1.0) fig10.Experiment.columns in
  let md =
    Report.to_markdown ~scale:Experiment.Smoke [ (fig10, [ ("x", values) ]) ]
  in
  let lines = String.split_on_char '\n' md in
  Alcotest.(check (list string)) "heading"
    [ "## fig10: " ^ fig10.Experiment.title ^ " [scale=smoke]" ]
    (List.filter (String.starts_with ~prefix:"## ") lines);
  let header =
    List.find (String.starts_with ~prefix:"| workload ") lines
  in
  Alcotest.(check bool) "every column named" true
    (List.for_all (fun c -> contains ~needle:c header) fig10.Experiment.columns);
  Alcotest.(check (list string)) "one blockquote per note"
    (List.map (fun n -> "> paper: " ^ n) fig10.Experiment.notes)
    (List.filter (String.starts_with ~prefix:">") lines)

(* An id that neither list knows renders the same way: its own columns
   head the table, a short row is padded, and the CSV names its value
   columns v0, v1 whatever the printed names. *)
let test_report_section_unknown () =
  let known = List.map (fun e -> e.Experiment.id) (Figures.all @ Ablations.all) in
  Alcotest.(check bool) "id is unknown" false (List.mem "xyz" known);
  let rows = [ ("a", [ 1.0 ]); ("b", [ 2.0; 3.0 ]) ] in
  let e =
    Experiment.make Experiment.Ablation "xyz" ~title:"an unlisted study"
      ~columns:[ "first"; "second" ] ~notes:[]
      (fun ~scale:_ ~journal:_ -> rows)
  in
  let md, csv =
    match export_files [ e ] [ "report.md"; "ablation_xyz.csv" ] with
    | _, [ md; csv ] -> (md, csv)
    | _ -> assert false
  in
  let lines = String.split_on_char '\n' md in
  Alcotest.(check bool) "named columns" true
    (List.mem "| workload | first | second |" lines);
  Alcotest.(check bool) "short row padded" true
    (List.mem "| a        | 1.000 |        |" lines);
  Alcotest.(check string) "generic CSV columns" "workload,v0,v1\na,1,\nb,2,3\n" csv

(* Two records, one figure and one ablation, through the one report
   path: the printed heading, named columns and notes reach report.md,
   and the CSVs keep their file names and v<i> headers. *)
let test_report_document () =
  let record id kind columns notes rows =
    Experiment.make kind id ~title:(id ^ " title") ~columns ~notes
      (fun ~scale:_ ~journal:_ -> rows)
  in
  let fig_rows = [ ("w1", [ 0.5; 0.75 ]) ] and knob_rows = [ ("k=1", [ 3.0 ]) ] in
  let fig =
    record "figx" Experiment.Figure [ "depth ratio"; "gate ratio" ]
      [ "the paper says 0.5" ] fig_rows
  in
  let knob = record "knob" Experiment.Ablation [ "mean swaps" ] [] knob_rows in
  let results, (md, fig_csv, knob_csv) =
    match export_files [ fig; knob ] [ "report.md"; "figx.csv"; "ablation_knob.csv" ] with
    | results, [ md; fig_csv; knob_csv ] -> (results, (md, fig_csv, knob_csv))
    | _ -> assert false
  in
  Alcotest.(check (list (pair string (list (pair string (list (float 0.0)))))))
    "returns each record's rows, in order"
    [ ("figx", fig_rows); ("knob", knob_rows) ]
    results;
  Alcotest.(check string) "report.md is to_markdown"
    (Report.to_markdown ~scale:Experiment.Smoke [ (fig, fig_rows); (knob, knob_rows) ])
    md;
  let lines = String.split_on_char '\n' md in
  Alcotest.(check (list string)) "one heading per record, as printed"
    [ "## figx: figx title [scale=smoke]"; "## knob: knob title [scale=smoke]" ]
    (List.filter (String.starts_with ~prefix:"## ") lines);
  Alcotest.(check bool) "named columns" true
    (List.mem "| workload | depth ratio | gate ratio |" lines
    && List.mem "| workload | mean swaps |" lines);
  Alcotest.(check bool) "notes" true (List.mem "> paper: the paper says 0.5" lines);
  Alcotest.(check string) "figure CSV" "workload,v0,v1\nw1,0.5,0.75\n" fig_csv;
  Alcotest.(check string) "ablation CSV" "workload,v0\nk=1,3\n" knob_csv

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pipeline_invariants;
    QCheck_alcotest.to_alcotest prop_pipeline_deterministic;
    QCheck_alcotest.to_alcotest prop_peephole_end_to_end;
    ("report known section", `Quick, test_report_section_known);
    ("report unknown section", `Quick, test_report_section_unknown);
    ("report document", `Quick, test_report_document);
  ]
