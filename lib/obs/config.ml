type format = Report | Jsonl | Chrome | Folded | Prometheus | Json

let format_name = function
  | Report -> "report"
  | Jsonl -> "jsonl"
  | Chrome -> "chrome"
  | Folded -> "folded"
  | Prometheus -> "prometheus"
  | Json -> "json"

let format_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt
    (fun f -> format_name f = s)
    [ Report; Jsonl; Chrome; Folded; Prometheus; Json ]

let enabled_flag = ref false
let current_format : format option ref = ref None
let current_out : string option ref = ref None
let epoch = Unix.gettimeofday ()

let set ?out format =
  current_format := format;
  (match out with Some _ -> current_out := out | None -> ());
  enabled_flag := Option.is_some format

let enabled () = !enabled_flag
let format () = !current_format
let out_path () = !current_out

(* Environment-driven setup at module load: QAOA_TRACE selects the
   format, QAOA_TRACE_FILE the output path.  An unrecognized value is
   reported once on stderr rather than silently ignored. *)
let () =
  match Sys.getenv_opt "QAOA_TRACE" with
  | None | Some "" -> ()
  | Some v -> (
    match format_of_string v with
    | Some f -> set ?out:(Sys.getenv_opt "QAOA_TRACE_FILE") (Some f)
    | None ->
      Printf.eprintf "qaoa_obs: ignoring QAOA_TRACE=%s (expected %s)\n%!" v
        "report|jsonl|chrome|folded|prometheus|json")
