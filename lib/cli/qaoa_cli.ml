module Config = Qaoa_obs.Config
module Compile = Qaoa_core.Compile
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
open Cmdliner

let strategy_conv =
  Arg.conv
    ( (fun s ->
        match Compile.strategy_of_string s with
        | Some st -> Ok st
        | None ->
          Error (`Msg ("expected " ^ String.concat " | " Compile.strategy_names))),
      fun ppf s -> Format.pp_print_string ppf (Compile.strategy_name s) )

let device_conv =
  Arg.conv
    ( (fun s ->
        match Topologies.by_name s with
        | Some d -> Ok d
        | None ->
          Error
            (`Msg
               ("unknown device; known: "
               ^ String.concat ", " Topologies.known_names))),
      fun ppf (d : Device.t) -> Format.pp_print_string ppf d.Device.name )

let format_conv =
  Arg.conv
    ( (fun s ->
        match Config.format_of_string s with
        | Some f -> Ok f
        | None ->
          Error
            (`Msg "expected report | jsonl | chrome | folded | prometheus | json")),
      fun ppf f -> Format.pp_print_string ppf (Config.format_name f) )

let trace_arg =
  Arg.(
    value
    & opt (some format_conv) None
    & info [ "trace" ] ~docv:"FORMAT" ~docs:Manpage.s_common_options
        ~doc:
          "Export telemetry at exit as report (span tree), jsonl, chrome \
           (trace_event JSON for chrome://tracing / Perfetto), folded \
           (flamegraph.pl input with per-span self time), prometheus (text \
           exposition) or json (counters, histograms and span roll-ups). \
           Equivalent to setting $(b,QAOA_TRACE).")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ] ~docv:"PATH" ~docs:Manpage.s_common_options
        ~doc:
          "Write the telemetry to PATH instead of stderr (equivalent to \
           $(b,QAOA_TRACE_FILE)).")

(* A flag-provided format wins over the environment; a lone --trace-file
   retargets whatever the environment configured. *)
let apply format out =
  match (format, Config.format ()) with
  | Some f, _ | None, Some f -> Config.set ?out (Some f)
  | None, None -> ()

let setup = Term.(const apply $ trace_arg $ trace_file_arg)

let guard ~tool f =
  try f () with
  | Compile.Error e ->
    Printf.eprintf "%s: %s\n" tool (Compile.error_to_string e);
    2
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "%s: %s\n" tool msg;
    2

let journaled ~journal_dir ~resume f =
  let module Journal = Qaoa_journal.Journal in
  let module Signals = Qaoa_journal.Signals in
  if resume && Option.is_none journal_dir then
    failwith "--resume requires --journal DIR";
  Qaoa_journal.Chaos.install_from_env ();
  let journal =
    Option.map (fun dir -> Journal.open_ ~resume ~dir ()) journal_dir
  in
  if Option.is_some journal then
    Signals.install ~resume_hint:(Signals.resume_hint_of_argv ());
  let v = f journal in
  Option.iter
    (fun j ->
      print_endline (Journal.summary j);
      Journal.close j)
    journal;
  v
