module Json = Qaoa_obs.Json
module Supervisor = Qaoa_journal.Supervisor

let encode_floats vs = Json.List (List.map (fun v -> Json.Float v) vs)

let decode_floats = function
  | Json.List l ->
    List.map
      (fun v -> Option.value ~default:Float.nan (Json.to_float v))
      l
  | _ -> []

let encode_float v = Json.Float v

let decode_float v = Option.value ~default:Float.nan (Json.to_float v)

let row ?journal ~key ~label f =
  match
    Supervisor.trial ?journal ~key ~encode:encode_floats ~decode:decode_floats
      f
  with
  | Supervisor.Completed vs -> Some (label, vs)
  | Supervisor.Quarantined _ -> None

let value ?journal ~key f =
  match
    Supervisor.trial ?journal ~key ~encode:encode_float ~decode:decode_float f
  with
  | Supervisor.Completed v -> Some v
  | Supervisor.Quarantined _ -> None
