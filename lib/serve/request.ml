module Json = Qaoa_obs.Json
module Compile = Qaoa_core.Compile
module Topologies = Qaoa_hardware.Topologies

type source = Graph of { n : int; edges : (int * int) list } | Qasm of string

type t = {
  id : string;
  source : source;
  device : string;
  policy : Compile.strategy;
  seed : int;
  p : int;
  gamma : float;
  beta : float;
  measure : bool;
  verify : bool;
  analyze : bool;
  qasm_out : bool;
}

let known_fields =
  [
    "id"; "graph"; "qasm"; "device"; "policy"; "seed"; "p"; "gamma"; "beta";
    "packing_limit"; "measure"; "verify"; "analyze"; "qasm_out";
  ]

let ( let* ) = Result.bind

let int_field ~default name json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let float_field ~default name json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some (Json.Float f) ->
    (* "1e999" parses to infinity; NaN/inf angles would flow into gate
       parameters and poison every downstream float, so stop them at
       the door with a locatable bad_request *)
    if Float.is_finite f then Ok f
    else Error (Printf.sprintf "field %S must be a finite number" name)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let bool_field ~default name json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let string_field ~default name json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let parse_id json =
  match Json.member "id" json with
  | Some (Json.String s) when s <> "" -> Ok s
  | Some (Json.Int i) -> Ok (string_of_int i)
  | Some _ -> Error "field \"id\" must be a non-empty string or an integer"
  | None -> Error "missing required field \"id\""

let parse_edges n edges =
  let rec go acc = function
    | [] -> Ok (List.sort_uniq compare acc)
    | Json.List [ Json.Int u; Json.Int v ] :: rest ->
      if u = v then Error (Printf.sprintf "self-loop edge [%d, %d]" u v)
      else if u < 0 || v < 0 || u >= n || v >= n then
        Error (Printf.sprintf "edge [%d, %d] out of range for n=%d" u v n)
      else go ((min u v, max u v) :: acc) rest
    | _ :: _ -> Error "edges must be [u, v] integer pairs"
  in
  go [] edges

let parse_source json =
  match (Json.member "graph" json, Json.member "qasm" json) with
  | Some _, Some _ -> Error "give either \"graph\" or \"qasm\", not both"
  | None, None -> Error "missing problem: give \"graph\" or \"qasm\""
  | None, Some (Json.String q) ->
    if String.trim q = "" then Error "field \"qasm\" must be non-empty"
    else Ok (Qasm q)
  | None, Some _ -> Error "field \"qasm\" must be a string"
  | Some g, None -> (
    match (Json.member "n" g, Json.member "edges" g) with
    | Some (Json.Int n), Some (Json.List edges) ->
      if n < 1 then Error "graph.n must be >= 1"
      else if n > Topologies.max_qubits then
        Error
          (Printf.sprintf "graph.n must be <= %d (the largest device)"
             Topologies.max_qubits)
      else
        let* edges = parse_edges n edges in
        if edges = [] then Error "graph has no edges (no cost layer to compile)"
        else Ok (Graph { n; edges })
    | _ -> Error "field \"graph\" must be {\"n\": int, \"edges\": [[u,v],...]}")

let parse_policy json =
  let* name = string_field ~default:"ic" "policy" json in
  match Compile.strategy_of_string name with
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (expected %s)" name
         (String.concat " | " Compile.strategy_names))
  | Some s -> (
    match Json.member "packing_limit" json with
    | None -> Ok s
    | Some (Json.Int l) when l >= 1 -> (
      match s with
      | Compile.Ic _ -> Ok (Compile.Ic (Some l))
      | Compile.Vic _ -> Ok (Compile.Vic (Some l))
      | _ -> Error "packing_limit only applies to policies ic and vic")
    | Some _ -> Error "field \"packing_limit\" must be an integer >= 1")

type control = Ping | Stats

let control_of_json = function
  | Json.Assoc fields -> (
    match List.assoc_opt "op" fields with
    | None -> None
    | Some op ->
      Some
        (match op with
        | Json.String ("ping" | "stats") when List.length fields > 1 ->
          Error "control request carries fields besides \"op\""
        | Json.String "ping" -> Ok Ping
        | Json.String "stats" -> Ok Stats
        | Json.String other ->
          Error
            (Printf.sprintf "unknown op %S (expected \"ping\" or \"stats\")"
               other)
        | _ -> Error "field \"op\" must be a string"))
  | _ -> None

let of_json = function
  | Json.Assoc fields as json -> (
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
    with
    | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
    | None ->
      let* id = parse_id json in
      let* source = parse_source json in
      let* policy = parse_policy json in
      let* device = string_field ~default:"tokyo" "device" json in
      let* seed = int_field ~default:42 "seed" json in
      let* p = int_field ~default:1 "p" json in
      let* gamma = float_field ~default:0.7 "gamma" json in
      let* beta = float_field ~default:0.4 "beta" json in
      let* measure = bool_field ~default:true "measure" json in
      let* verify = bool_field ~default:false "verify" json in
      let* analyze = bool_field ~default:false "analyze" json in
      let* qasm_out = bool_field ~default:false "qasm_out" json in
      if p < 1 then Error "field \"p\" must be >= 1"
      else
        Ok
          {
            id;
            source;
            device;
            policy;
            seed;
            p;
            gamma;
            beta;
            measure;
            verify;
            analyze;
            qasm_out;
          })
  | _ -> Error "request must be a JSON object"

let of_line line =
  match Json.of_string_opt line with
  | None -> Error "malformed JSON"
  | Some json -> of_json json

let policy_tag t =
  (* the policy's name in Compile's table; the packing limit is rendered
     separately so "ic" round-trips as "ic" *)
  let unlimited =
    match t.policy with
    | Compile.Ic _ -> Compile.Ic None
    | Compile.Vic _ -> Compile.Vic None
    | s -> s
  in
  List.assoc unlimited (List.combine Compile.all_strategies Compile.strategy_names)

let packing_limit t =
  match t.policy with
  | Compile.Ic (Some l) | Compile.Vic (Some l) -> Some l
  | _ -> None

let to_json t =
  let source_fields =
    match t.source with
    | Graph { n; edges } ->
      [
        ( "graph",
          Json.Assoc
            [
              ("n", Json.Int n);
              ( "edges",
                Json.List
                  (List.map
                     (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
                     edges) );
            ] );
      ]
    | Qasm q -> [ ("qasm", Json.String q) ]
  in
  Json.Assoc
    (("id", Json.String t.id)
    :: source_fields
    @ [
        ("device", Json.String t.device);
        ("policy", Json.String (policy_tag t));
      ]
    @ (match packing_limit t with
      | Some l -> [ ("packing_limit", Json.Int l) ]
      | None -> [])
    @ [
        ("seed", Json.Int t.seed);
        ("p", Json.Int t.p);
        ("gamma", Json.Float t.gamma);
        ("beta", Json.Float t.beta);
        ("measure", Json.Bool t.measure);
        ("verify", Json.Bool t.verify);
        ("analyze", Json.Bool t.analyze);
        ("qasm_out", Json.Bool t.qasm_out);
      ])

let fingerprint t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match t.source with
  | Graph { n; edges } ->
    add "graph=%d:" n;
    List.iter (fun (u, v) -> add "%d-%d," u v) edges
  | Qasm q -> add "qasm=%s" q);
  add ";device=%s;policy=%s" t.device (Compile.strategy_name t.policy);
  (* hex floats: exact, no decimal-rounding aliasing *)
  add ";seed=%d;p=%d;gamma=%h;beta=%h" t.seed t.p t.gamma t.beta;
  add ";measure=%b;verify=%b;analyze=%b;qasm_out=%b" t.measure t.verify
    t.analyze t.qasm_out;
  Buffer.contents buf

let cache_key = fingerprint
