module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Layering = Qaoa_circuit.Layering
module Json = Qaoa_obs.Json
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type summary = {
  gates : int;
  lower_bound : int;
  critical_path : int;
  busy_bound : int;
  asap_depth : int;
  measured_depth : int;
  total_slack : int;
  live_pressure : int;
}

type t = {
  dag : Commute.t;
  asap_level : int array;
  alap_level : int array;
  slack : int array;
  step : int array;
  summary : summary;
}

let of_circuit circuit =
  Trace.with_span "analysis.dataflow.analyze"
    ~attrs:[ ("gates", Trace.int (Circuit.length circuit)) ]
  @@ fun () ->
  Metrics_registry.incr "analysis.dataflow.runs";
  let dag = Commute.build circuit in
  let n = Commute.num_nodes dag in
  let weight id =
    match Commute.gate dag id with Gate.Barrier -> 0 | _ -> 1
  in
  (* contention-free levels: longest weighted chain above / below *)
  let asap_level = Array.make n 0 in
  let down = Array.make n 0 in
  for id = 0 to n - 1 do
    asap_level.(id) <-
      List.fold_left
        (fun acc p -> max acc (asap_level.(p) + weight p))
        0
        (Commute.predecessors dag id)
  done;
  for id = n - 1 downto 0 do
    down.(id) <-
      List.fold_left
        (fun acc s -> max acc (down.(s) + weight s))
        0
        (Commute.successors dag id)
  done;
  let critical_path = ref 0 in
  for id = 0 to n - 1 do
    critical_path := max !critical_path (asap_level.(id) + weight id + down.(id))
  done;
  let critical_path = !critical_path in
  let alap_level =
    Array.init n (fun id -> critical_path - weight id - down.(id))
  in
  let slack = Array.init n (fun id -> alap_level.(id) - asap_level.(id)) in
  (* greedy resource-constrained ASAP with backfilling: earliest step at
     or after every dependency where all operand qubits are idle.
     Processing in circuit order keeps each gate at or before its
     Layering layer, so asap_depth <= measured_depth. *)
  let finish = Array.make n 0 in
  let step = Array.make n 0 in
  let busy = Hashtbl.create 64 in
  let asap_depth = ref 0 in
  for id = 0 to n - 1 do
    let earliest =
      List.fold_left
        (fun acc p -> max acc finish.(p))
        0
        (Commute.predecessors dag id)
    in
    let time =
      if weight id = 0 then earliest
      else begin
        let qs = Gate.qubits (Commute.gate dag id) in
        let rec free t =
          if List.exists (fun q -> Hashtbl.mem busy (q, t)) qs then free (t + 1)
          else t
        in
        let time = free earliest in
        List.iter (fun q -> Hashtbl.replace busy (q, time) ()) qs;
        asap_depth := max !asap_depth (time + 1);
        time
      end
    in
    step.(id) <- time;
    finish.(id) <- time + weight id
  done;
  let asap_depth = !asap_depth in
  let nq = Commute.num_qubits dag in
  let per_qubit = Array.make nq 0 in
  let live = Array.make nq None in
  for id = 0 to n - 1 do
    if weight id > 0 then
      List.iter
        (fun q ->
          per_qubit.(q) <- per_qubit.(q) + 1;
          live.(q) <-
            (match live.(q) with
            | None -> Some (step.(id), step.(id))
            | Some (a, b) -> Some (min a step.(id), max b step.(id))))
        (Gate.qubits (Commute.gate dag id))
  done;
  let busy_bound = Array.fold_left max 0 per_qubit in
  let live_pressure =
    (* sweep the live intervals: max simultaneous overlap *)
    let delta = Array.make (asap_depth + 1) 0 in
    Array.iter
      (function
        | None -> ()
        | Some (a, b) ->
          delta.(a) <- delta.(a) + 1;
          delta.(b + 1) <- delta.(b + 1) - 1)
      live;
    let best = ref 0 and cur = ref 0 in
    Array.iter
      (fun d ->
        cur := !cur + d;
        best := max !best !cur)
      delta;
    !best
  in
  let total_slack = ref 0 in
  for id = 0 to n - 1 do
    if weight id > 0 then total_slack := !total_slack + slack.(id)
  done;
  let summary =
    {
      gates = n;
      lower_bound = max critical_path busy_bound;
      critical_path;
      busy_bound;
      asap_depth;
      measured_depth = Layering.depth circuit;
      total_slack = !total_slack;
      live_pressure;
    }
  in
  Trace.add_attr "lower_bound" (Trace.int summary.lower_bound);
  Trace.add_attr "measured_depth" (Trace.int summary.measured_depth);
  { dag; asap_level; alap_level; slack; step; summary }

let analyze circuit = (of_circuit circuit).summary
let dag t = t.dag
let summary t = t.summary
let asap_level t id = t.asap_level.(id)
let alap_level t id = t.alap_level.(id)
let slack t id = t.slack.(id)
let step t id = t.step.(id)

let weight t id =
  match Commute.gate t.dag id with Gate.Barrier -> 0 | _ -> 1

let critical t id = weight t id > 0 && t.slack.(id) = 0

let critical_edge t i j =
  critical t i && critical t j
  && t.asap_level.(j) = t.asap_level.(i) + weight t i
  && List.mem j (Commute.successors t.dag i)

let summary_to_json s =
  Json.Assoc
    [
      ("gates", Json.Int s.gates);
      ("lower_bound", Json.Int s.lower_bound);
      ("critical_path", Json.Int s.critical_path);
      ("busy_bound", Json.Int s.busy_bound);
      ("asap_depth", Json.Int s.asap_depth);
      ("measured_depth", Json.Int s.measured_depth);
      ("total_slack", Json.Int s.total_slack);
      ("live_pressure", Json.Int s.live_pressure);
    ]

let gate_str g = Format.asprintf "%a" Gate.pp g

let to_json t =
  let node_json id =
    Json.Assoc
      [
        ("id", Json.Int id);
        ("gate", Json.String (gate_str (Commute.gate t.dag id)));
        ( "qubits",
          Json.List
            (List.map (fun q -> Json.Int q) (Gate.qubits (Commute.gate t.dag id)))
        );
        ("asap", Json.Int t.asap_level.(id));
        ("alap", Json.Int t.alap_level.(id));
        ("slack", Json.Int t.slack.(id));
        ("step", Json.Int t.step.(id));
        ("critical", Json.Bool (critical t id));
      ]
  in
  let edge_json (i, j) =
    Json.Assoc
      [
        ("from", Json.Int i);
        ("to", Json.Int j);
        ("critical", Json.Bool (critical_edge t i j));
      ]
  in
  Json.Assoc
    [
      ("version", Json.Int 1);
      ("num_qubits", Json.Int (Commute.num_qubits t.dag));
      ("summary", summary_to_json t.summary);
      ( "nodes",
        Json.List (List.init (Commute.num_nodes t.dag) node_json) );
      ("edges", Json.List (List.map edge_json (Commute.edges t.dag)));
    ]

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph commutation {\n  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  for id = 0 to Commute.num_nodes t.dag - 1 do
    let style =
      if critical t id then
        " color=red penwidth=2.0"
      else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%d: %s\\nslack %d\"%s];\n" id id
         (gate_str (Commute.gate t.dag id))
         t.slack.(id) style)
  done;
  List.iter
    (fun (i, j) ->
      let style =
        if critical_edge t i j then " [color=red penwidth=2.0]" else ""
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" i j style))
    (Commute.edges t.dag);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
