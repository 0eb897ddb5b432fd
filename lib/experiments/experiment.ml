type scale = Smoke | Default | Full

let scale_of_string s =
  match String.lowercase_ascii s with
  | "smoke" -> Some Smoke
  | "default" -> Some Default
  | "full" -> Some Full
  | _ -> None

let scale_name = function Smoke -> "smoke" | Default -> "default" | Full -> "full"

let scale_from_env () =
  match Sys.getenv_opt "QAOA_BENCH_SCALE" with
  | Some s -> Option.value ~default:Default (scale_of_string s)
  | None -> Default

type row = string * float list

type kind = Figure | Ablation

type t = {
  id : string;
  kind : kind;
  title : string;
  columns : string list;
  notes : string list;
  run : scale:scale -> journal:Qaoa_journal.Journal.t option -> row list;
}

let make kind id ~title ~columns ~notes run =
  { id; kind; title; columns; notes; run }
