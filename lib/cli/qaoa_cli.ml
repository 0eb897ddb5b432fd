module Config = Qaoa_obs.Config
open Cmdliner

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
