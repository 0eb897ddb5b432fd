module Json = Qaoa_obs.Json
module Supervisor = Qaoa_journal.Supervisor

let trial ?journal ~key ~encode ~decode f =
  match journal with
  | None -> Some (f ())
  | Some journal -> (
    match Supervisor.trial ~journal ~key ~encode ~decode f with
    | Supervisor.Completed v -> Some v
    | Supervisor.Quarantined _ -> None)

let encode_float v = Json.Float v

let decode_float = function
  | Json.Null -> Float.nan (* how [Json] writes a non-finite float *)
  | v -> (
    match Json.to_float v with
    | Some f -> f
    | None -> failwith "expected a number")

let encode_floats vs = Json.List (List.map encode_float vs)

let decode_floats = function
  | Json.List l -> List.map decode_float l
  | _ -> failwith "expected a list of numbers"

let row ?journal ~key ~label f =
  Option.map
    (fun vs -> (label, vs))
    (trial ?journal ~key ~encode:encode_floats ~decode:decode_floats f)

let value ?journal ~key f =
  trial ?journal ~key ~encode:encode_float ~decode:decode_float f
