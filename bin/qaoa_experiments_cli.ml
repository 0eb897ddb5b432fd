(* qaoa-experiments: regenerate a chosen table/figure of the paper's
   evaluation section.

   Examples:
     qaoa-experiments --figure fig9 --scale default
     qaoa-experiments --figure all --scale full
     qaoa-experiments --figure all --journal runs/full --export runs/full/csv
     qaoa-experiments --figure all --journal runs/full --resume *)

module Figures = Qaoa_experiments.Figures
module Export = Qaoa_experiments.Export
module Journal = Qaoa_journal.Journal
module Chaos = Qaoa_journal.Chaos
module Signals = Qaoa_journal.Signals
open Cmdliner

let figures :
    (string
    * (scale:Figures.scale -> journal:Journal.t option -> Figures.row list))
    list =
  [
    ("fig7", fun ~scale ~journal -> Figures.fig7 ~scale ?journal ());
    ("fig8", fun ~scale ~journal -> Figures.fig8 ~scale ?journal ());
    ("fig9", fun ~scale ~journal -> Figures.fig9 ~scale ?journal ());
    ("fig10", fun ~scale ~journal -> Figures.fig10 ~scale ?journal ());
    ("fig11a", fun ~scale ~journal -> Figures.fig11a ~scale ?journal ());
    ("fig11b", fun ~scale ~journal -> Figures.fig11b ~scale ?journal ());
    ("fig12", fun ~scale ~journal -> Figures.fig12 ~scale ?journal ());
    ("ring8", fun ~scale ~journal -> Figures.fig_ring8 ~scale ?journal ());
  ]

let figure_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    if s = "all" then Ok `All
    else
      match List.assoc_opt s figures with
      | Some _ -> Ok (`One s)
      | None ->
        Error
          (`Msg
             ("unknown figure; known: all, "
             ^ String.concat ", " (List.map fst figures)))
  in
  let print ppf = function
    | `All -> Format.pp_print_string ppf "all"
    | `One id -> Format.pp_print_string ppf id
  in
  Arg.conv (parse, print)

let scale_conv =
  Arg.conv
    ( (fun s ->
        match Figures.scale_of_string s with
        | Some sc -> Ok sc
        | None -> Error (`Msg "expected smoke | default | full")),
      fun ppf s -> Format.pp_print_string ppf (Figures.scale_name s) )

(* The printed tables carry the real column names; exported CSVs use
   generic value columns sized per figure (same convention as the bench
   harness's bench_results/). *)
let export_csvs ~dir results =
  let triples =
    List.map
      (fun (name, rows) ->
        let width =
          List.fold_left (fun acc (_, vs) -> max acc (List.length vs)) 0 rows
        in
        (name, List.init width (fun i -> Printf.sprintf "v%d" i), rows))
      results
  in
  Export.export_all ~dir triples

let run () figure scale journal_dir resume export_dir =
  try
    if resume && Option.is_none journal_dir then
      failwith "--resume requires --journal DIR";
    Chaos.install_from_env ();
    let journal =
      Option.map (fun dir -> Journal.open_ ~resume ~dir ()) journal_dir
    in
    if Option.is_some journal then
      Signals.install ~resume_hint:(Signals.resume_hint_of_argv ());
    let results =
      match figure with
      | `All -> Figures.all ~scale ?journal ()
      | `One id -> [ (id, (List.assoc id figures) ~scale ~journal) ]
    in
    (match export_dir with
    | None -> ()
    | Some dir ->
      let paths = export_csvs ~dir results in
      Printf.printf "\nwrote %d CSV file(s) under %s/\n" (List.length paths)
        dir);
    Option.iter
      (fun j ->
        print_endline (Journal.summary j);
        Journal.close j)
      journal;
    0
  with
  | Qaoa_core.Compile.Error e ->
    Printf.eprintf "qaoa-experiments: %s\n"
      (Qaoa_core.Compile.error_to_string e);
    2
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "qaoa-experiments: %s\n" msg;
    2

let cmd =
  let figure =
    Arg.(
      value
      & opt figure_conv `All
      & info [ "figure"; "f" ] ~docv:"ID"
          ~doc:"Which experiment to run (fig7..fig12, ring8, all).")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv Figures.Default
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Instance-count scale: smoke, default or full (paper-scale).")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal every trial to $(docv)/journal.jsonl so an interrupted \
             run can be resumed.  A non-empty journal is refused unless \
             $(b,--resume) is given.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the journal: completed trials are read back \
             instead of re-executed, quarantined trials stay skipped.")
  in
  let export_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Write each figure's rows to $(docv)/<figure>.csv (atomic \
             writes; the directory is created if missing).")
  in
  Cmd.v
    (Cmd.info "qaoa-experiments" ~version:"1.0.0"
       ~doc:"Regenerate the MICRO'20 QAOA-compilation evaluation figures")
    Term.(
      const run $ Qaoa_cli.setup $ figure $ scale $ journal_dir $ resume
      $ export_dir)

let () = exit (Cmd.eval' ~term_err:2 cmd)
