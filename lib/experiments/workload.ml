module Rng = Qaoa_util.Rng
module Generators = Qaoa_graph.Generators
module Graph = Qaoa_graph.Graph

type graph_kind =
  | Erdos_renyi of float
  | Regular of int
  | Gnm of int
  | Barabasi_albert of int
  | Watts_strogatz of int * float

let kind_name = function
  | Erdos_renyi p -> Printf.sprintf "ER(p=%.1f)" p
  | Regular d -> Printf.sprintf "%d-regular" d
  | Gnm m -> Printf.sprintf "G(n,m=%d)" m
  | Barabasi_albert m -> Printf.sprintf "BA(m=%d)" m
  | Watts_strogatz (k, beta) -> Printf.sprintf "WS(k=%d,b=%.1f)" k beta

let kind_of_string s =
  match String.split_on_char ':' s with
  | [ "er"; p ] -> (
    match float_of_string_opt p with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Erdos_renyi p)
    | _ -> Error (`Msg "er:<p> expects 0 <= p <= 1"))
  | [ "regular"; d ] -> (
    match int_of_string_opt d with
    | Some d when d >= 1 -> Ok (Regular d)
    | _ -> Error (`Msg "regular:<d> expects d >= 1"))
  | [ "ba"; m ] -> (
    match int_of_string_opt m with
    | Some m when m >= 1 -> Ok (Barabasi_albert m)
    | _ -> Error (`Msg "ba:<m> expects m >= 1"))
  | _ -> Error (`Msg "expected er:<p>, regular:<d> or ba:<m>")

let graph rng kind ~n =
  match kind with
  | Erdos_renyi p -> Generators.erdos_renyi rng ~n ~p
  | Regular d -> Generators.random_regular rng ~n ~d
  | Gnm m -> Generators.erdos_renyi_gnm rng ~n ~m
  | Barabasi_albert m -> Generators.barabasi_albert rng ~n ~m
  | Watts_strogatz (k, beta) -> Generators.watts_strogatz rng ~n ~k ~beta

let problems rng kind ~n ~count =
  let rec draw () =
    let g = graph rng kind ~n in
    if Graph.num_edges g = 0 then draw () else g
  in
  List.init count (fun _ -> Qaoa_core.Problem.of_maxcut (draw ()))

let default_params = Qaoa_core.Ansatz.params_p1 ~gamma:0.7 ~beta:0.4
