(* The repository benchmark.  See README.md beside this file.

     main.exe run     --workload W [--seed S] [--seconds T] [--out DIR]
     main.exe trace   --workload W [--seed S] [--seconds T] [--out DIR]
     main.exe compare BASE NEW
     main.exe --workload W --seed S --seconds T --trace 0|1

   [run] measures the end-to-end metrics with tracing off, checks every
   output and writes DIR/results.json.  [trace] repeats the same inputs
   with spans and also writes DIR/trace.json (Chrome trace) and
   DIR/per_layer.json.  The last line of stdout is always one JSON
   object with [correct], [attempted], [failed] and [metrics].  The
   exit code is 0 only when every operation succeeded and every check
   passed.  The flag-only form is [run] or [trace] by [--trace]. *)

module Json = Qaoa_obs.Json
open Cmdliner

let workloads =
  [
    ("paper-compile", Compile_wl.run Compile_wl.paper);
    ("checked-compile", Compile_wl.run Compile_wl.checked);
    ("serve-batch-cold", Serve_wl.batch);
    ("serve-daemon-warm", Serve_wl.daemon);
  ]

let write_json path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let execute ~workload ~seed ~seconds ~traced ~out =
  Proc.install_signal_handlers ();
  let load_start = Host.loadavg () in
  let t0 = Unix.gettimeofday () in
  let o = (List.assoc workload workloads) ~seed ~seconds ~traced in
  let wall_s = Unix.gettimeofday () -. t0 in
  let load_end = Host.loadavg () in
  let tally = o.Report.tally in
  if tally.Report.attempted < 1 then Report.fail_run tally "no operation ran";
  (* an end-to-end metric that reads 0 or NaN was not measured *)
  List.iter
    (fun mt ->
      match List.assoc_opt mt.Report.name o.Report.values with
      | Some v when Float.is_finite v && v > 0.0 -> ()
      | _ -> Report.fail_run tally (mt.Report.name ^ " was not measured"))
    Report.end_to_end;
  let mode = if traced then "trace" else "run" in
  let out =
    match out with
    | Some d -> d
    | None -> Filename.concat ".bench_out" (Printf.sprintf "%s-seed%d-%s" workload seed mode)
  in
  mkdir_p out;
  let per_layer = Report.metrics_json Report.per_layer o.Report.values in
  let failed = Report.failed tally in
  write_json
    (Filename.concat out "results.json")
    (Json.Assoc
       [
         ("workload", Json.String workload);
         ("mode", Json.String mode);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("wall_s", Json.Float wall_s);
         ("host", Host.stamp ~load_start ~load_end);
         ("correct", Json.Bool (Report.correct o));
         ("attempted", Json.Int tally.Report.attempted);
         ("failed", Json.Int failed);
         ( "error_rate",
           Json.Float (float_of_int failed /. float_of_int (max 1 tally.Report.attempted)) );
         ("problems", Json.List (List.rev_map (fun s -> Json.String s) tally.Report.problems));
         ("inputs_digest", Json.String o.Report.digest);
         ("samples", Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) o.Report.samples));
         ("metrics", Report.metrics_json Report.end_to_end o.Report.values);
         ("per_layer", if traced then per_layer else Json.Assoc []);
       ]);
  if traced then begin
    write_json (Filename.concat out "per_layer.json") per_layer;
    Option.iter (fun t -> Span.write_chrome t (Filename.concat out "trace.json")) o.Report.spans
  end;
  List.iter
    (fun mt ->
      match List.assoc_opt mt.Report.name o.Report.values with
      | Some v -> Printf.printf "%-36s %16.6f %s\n" mt.Report.name v mt.Report.unit_
      | None -> ())
    (if traced then Report.end_to_end @ Report.per_layer else Report.end_to_end);
  Printf.printf "results: %s\n" (Filename.concat out "results.json");
  print_endline (Report.contract_line ~traced o);
  if Report.correct o then 0 else 1

(* ------------------------------------------------------------------ *)
(* compare *)

(* A results file, or every results.json under a directory. *)
let results_files path =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then walk p else if e = "results.json" then [ p ] else [])
  in
  if Sys.is_directory path then walk path else [ path ]

let load_results path =
  results_files path
  |> List.filter_map (fun f ->
         match Option.bind (Host.read_file f) Json.of_string_opt with
         | Some j when Json.member "workload" j <> None && Json.member "metrics" j <> None ->
           Some j
         | _ -> None)

let str key j = match Json.member key j with Some (Json.String s) -> s | _ -> ""

let metric_value name j =
  Option.bind (Json.member "metrics" j) (fun m ->
      Option.bind (Json.member name m) (fun v ->
          Option.bind (Json.member "value" v) Json.to_float))

let bounds () =
  match Option.bind (Host.read_file "BENCHMARK.json") Json.of_string_opt with
  | None -> failwith "BENCHMARK.json not found in the working directory"
  | Some j -> (
    match Json.member "end_to_end" j with
    | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Option.bind (Json.member "bound" m) Json.to_float) with
          | Some (Json.String n), Some b -> Some (n, b)
          | _ -> None)
        ms
    | _ -> failwith "BENCHMARK.json has no end_to_end list")

let host_key j =
  match Json.member "host" j with
  | Some h ->
    let nproc = match Json.member "nproc" h with Some (Json.Int n) -> n | _ -> 0 in
    Printf.sprintf "%s nproc=%d ocaml=%s" (str "hostname" h) nproc (str "ocaml_version" h)
  | None -> "?"

(* Medians per (workload, metric) on each side, held to the bounds in
   BENCHMARK.json; quality metrics may not increase at all when both
   sides ran identical inputs.  Exit 1 when any pair is out of bounds. *)
let compare_cmd base_path new_path =
  let bounds = bounds () in
  let base = load_results base_path and next = load_results new_path in
  if base = [] || next = [] then failwith "no results files on one side";
  let hosts l = List.sort_uniq compare (List.map host_key l) in
  if hosts base <> hosts next then
    Printf.printf "warning: host mismatch\n  base: %s\n  new:  %s\n"
      (String.concat "; " (hosts base))
      (String.concat "; " (hosts next));
  let failures = ref 0 in
  Printf.printf "%-18s %-22s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new" "change"
    "bound" "verdict";
  let compare_workload w =
    let of_w l = List.filter (fun j -> str "workload" j = w) l in
    let b = of_w base and n = of_w next in
    let digests l = List.sort compare (List.map (str "inputs_digest") l) in
    let same_inputs = digests b = digests n in
    let compare_metric mt =
      let name = mt.Report.name in
      let values l = List.filter_map (metric_value name) l in
      match (values b, values n) with
      | [], _ | _, [] -> ()
      | vb, vn ->
        let mb = Stats.median vb and mn = Stats.median vn in
        let change = (mn -. mb) /. mb in
        let worse = if mt.Report.better = "lower" then change else -.change in
        let bound =
          if same_inputs && List.mem name Report.exact then 0.0
          else Option.value (List.assoc_opt name bounds) ~default:0.0
        in
        let ok = worse <= bound in
        if not ok then incr failures;
        Printf.printf "%-18s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" w name mb mn
          (100. *. change) (100. *. bound)
          (if ok then "ok" else "OUT OF BOUNDS")
    in
    if n = [] then Printf.printf "%-18s missing on the new side\n" w
    else List.iter compare_metric Report.end_to_end
  in
  List.iter compare_workload (List.sort_uniq compare (List.map (str "workload") base));
  if !failures > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload_arg =
  let names = List.map fst workloads in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "workload"; "w" ] ~docv:"NAME" ~doc:("Workload: " ^ String.concat ", " names ^ "."))

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds_arg =
  Arg.(
    value & opt int 15
    & info [ "seconds" ] ~docv:"T"
        ~doc:"Run length: the inputs are sized to take about T seconds on the reference host.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Directory for results.json (and, traced, trace.json and per_layer.json); default \
           .bench_out/WORKLOAD-seedN-MODE.")

let guarded f =
  try f () with
  | Failure msg | Sys_error msg ->
    prerr_endline ("bench: " ^ msg);
    2

let run_term traced =
  Term.(
    const (fun workload seed seconds traced out ->
        guarded (fun () -> execute ~workload ~seed ~seconds ~traced ~out))
    $ workload_arg $ seed_arg $ seconds_arg $ traced $ out_arg)

let trace_flag =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1" ~doc:"1 runs $(b,trace), 0 runs $(b,run).")

let compare_term =
  let side n docv =
    Arg.(
      required
      & pos n (some string) None
      & info [] ~docv ~doc:"A results.json file or a directory of them.")
  in
  Term.(const (fun a b -> guarded (fun () -> compare_cmd a b)) $ side 0 "BASE" $ side 1 "NEW")

let () =
  let cmd =
    Cmd.group ~default:(run_term trace_flag)
      (Cmd.info "bench-suite" ~doc:"Repository benchmark: run, trace and compare")
      [
        Cmd.v
          (Cmd.info "run" ~doc:"Measure the end-to-end metrics, tracing off.")
          (run_term (Term.const false));
        Cmd.v
          (Cmd.info "trace" ~doc:"Repeat the run's inputs with spans; per-layer metrics.")
          (run_term (Term.const true));
        Cmd.v
          (Cmd.info "compare" ~doc:"Apply the BENCHMARK.json bounds to two sets of results.")
          compare_term;
        Cmd.v
          (Cmd.info "setup-probe"
             ~doc:"Only the compile workloads' set-up, in a fresh process: what setup_s times.")
          Term.(const (fun () -> ignore (Compile_wl.prepare () : Compile_wl.devices); 0) $ const ());
      ]
  in
  exit (Cmd.eval' ~term_err:2 cmd)
