(* qaoa-experiments: regenerate a chosen figure or ablation of the
   paper's evaluation section, or all of them.

   Examples:
     qaoa-experiments --figure fig9 --scale default
     qaoa-experiments --figure all --scale full
     qaoa-experiments --figure all --journal runs/full --export runs/full/csv
     qaoa-experiments --figure all --journal runs/full --resume *)

module Experiment = Qaoa_experiments.Experiment
module Report = Qaoa_experiments.Report
open Cmdliner

(* figures first, then ablations, as the bench harness runs them *)
let experiments = Qaoa_experiments.Figures.all @ Qaoa_experiments.Ablations.all
let ids = "all" :: List.map (fun e -> e.Experiment.id) experiments

let scale_conv =
  Arg.conv
    ( (fun s ->
        match Experiment.scale_of_string s with
        | Some sc -> Ok sc
        | None -> Error (`Msg "expected smoke | default | full")),
      fun ppf s -> Format.pp_print_string ppf (Experiment.scale_name s) )

let run () figure scale journal_dir resume export =
  Qaoa_cli.guard ~tool:"qaoa-experiments" @@ fun () ->
  Qaoa_cli.journaled ~journal_dir ~resume (fun journal ->
      ignore
        (Report.run ?journal ?export ~scale
           (List.filter
              (fun e -> figure = "all" || e.Experiment.id = figure)
              experiments)));
  0

let cmd =
  let figure =
    Arg.(
      value
      & opt (enum (List.map (fun id -> (id, id)) ids)) "all"
      & info [ "figure"; "f" ] ~docv:"ID"
          ~doc:
            ("Which experiment to run: $(b,all) (every figure, then every \
              ablation) or " ^ doc_alts (List.tl ids) ^ "."))
  in
  let scale =
    Arg.(
      value
      & opt scale_conv Experiment.Default
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
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Write each experiment's rows to $(docv)/<id>.csv \
             (ablation_<id>.csv for an ablation) as it finishes, then \
             $(docv)/report.md (atomic writes; the directory is created \
             if missing).")
  in
  Cmd.v
    (Cmd.info "qaoa-experiments" ~version:"1.0.0"
       ~doc:"Regenerate the MICRO'20 QAOA-compilation evaluation figures")
    Term.(
      const run $ Qaoa_cli.setup $ figure $ scale $ journal_dir $ resume
      $ export)

let () = exit (Cmd.eval' ~term_err:2 cmd)
