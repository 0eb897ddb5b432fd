(* qaoa-resilience: recompile the Fig. 10 workload shapes on
   fault-injected devices through the graceful-degradation chain.

   Examples:
     qaoa-resilience --scale smoke
     qaoa-resilience --topology tokyo --topology grid6x6 --verify \
       --deadline 30 --fail-on-exhausted *)

module Figures = Qaoa_experiments.Figures
module Resilience = Qaoa_experiments.Resilience
module Differential = Qaoa_experiments.Differential
module Compile = Qaoa_core.Compile
module Journal = Qaoa_journal.Journal
open Cmdliner

let scale_conv =
  Arg.conv
    ( (fun s ->
        match Figures.scale_of_string s with
        | Some sc -> Ok sc
        | None -> Error (`Msg "expected smoke | default | full")),
      fun ppf s -> Format.pp_print_string ppf (Figures.scale_name s) )

let deadline_conv =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some d when Float.is_finite d && d > 0.0 -> Ok d
        | _ -> Error (`Msg "expected a positive number of seconds")),
      fun ppf d -> Format.fprintf ppf "%g" d )

let run () scale seed topologies deadline verify retries fail_on_exhausted
    journal_dir resume =
  try
    if resume && Option.is_none journal_dir then
      failwith "--resume requires --journal DIR";
    Qaoa_journal.Chaos.install_from_env ();
    let journal =
      Option.map (fun dir -> Journal.open_ ~resume ~dir ()) journal_dir
    in
    if Option.is_some journal then
      Qaoa_journal.Signals.install
        ~resume_hint:(Qaoa_journal.Signals.resume_hint_of_argv ());
    let compiled = ref 0 and total = ref 0 in
    let recovered = ref 0 and exhausted = ref 0 in
    List.iter
      (fun name ->
        let device = Differential.device_of_topology name in
        let rows =
          Resilience.run ~scale ?journal ~seed ~device ?deadline_s:deadline
            ~verify ~retries ()
        in
        List.iter
          (fun r ->
            compiled := !compiled + r.Resilience.compiled;
            total := !total + r.Resilience.instances;
            recovered := !recovered + r.Resilience.fallback_recovered;
            exhausted := !exhausted + r.Resilience.exhausted)
          rows)
      topologies;
    Printf.printf
      "\nresilience summary: %d/%d compiled, %d recovered by fallback, %d \
       exhausted\n"
      !compiled !total !recovered !exhausted;
    Option.iter
      (fun j ->
        print_endline (Journal.summary j);
        Journal.close j)
      journal;
    if fail_on_exhausted && !exhausted > 0 then begin
      Printf.eprintf
        "qaoa-resilience: %d instance(s) exhausted the fallback chain\n"
        !exhausted;
      1
    end
    else 0
  with
  | Compile.Error e ->
    Printf.eprintf "qaoa-resilience: %s\n" (Compile.error_to_string e);
    2
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "qaoa-resilience: %s\n" msg;
    2

let cmd =
  let scale =
    Arg.(
      value
      & opt scale_conv Figures.Default
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Instance-count scale: smoke, default or full.")
  in
  let seed =
    Arg.(
      value & opt int 13000
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Base seed for workloads, calibration and fault injection.")
  in
  let topologies =
    Arg.(
      value
      & opt_all string [ "tokyo" ]
      & info [ "topology"; "t" ] ~docv:"NAME"
          ~doc:
            "Device topology to sweep (repeatable).  Use a >= 16-qubit \
             register so the n = 15 workloads survive dead qubits.")
  in
  let deadline =
    Arg.(
      value
      & opt (some deadline_conv) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Wall-clock budget per fallback chain, in seconds.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Run translation validation on every compiled circuit.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Reseeded retries per strategy on retryable failures.")
  in
  let fail_on_exhausted =
    Arg.(
      value & flag
      & info [ "fail-on-exhausted" ]
          ~doc:
            "Exit 1 if any instance exhausts the whole fallback chain \
             (CI guard).")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal every (device, workload, scenario) cell to \
             $(docv)/journal.jsonl so an interrupted sweep can be resumed.  \
             A non-empty journal is refused unless $(b,--resume) is given.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the journal: completed cells are read back instead \
             of re-executed, quarantined cells stay skipped.")
  in
  Cmd.v
    (Cmd.info "qaoa-resilience" ~version:"1.0.0"
       ~doc:
         "Fault-injection sweep: compile QAOA workloads on degraded devices \
          through the graceful-degradation chain")
    Term.(
      const run $ Qaoa_cli.setup $ scale $ seed $ topologies $ deadline
      $ verify $ retries $ fail_on_exhausted $ journal_dir $ resume)

let () = exit (Cmd.eval' ~term_err:2 cmd)
