module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace

type node = { id : int; gate : Gate.t }

type t = {
  num_qubits : int;
  gates : Gate.t array;
  preds : int list array;
  succs : int list array;
}

let build circuit =
  Trace.with_span "analysis.commute.build"
    ~attrs:[ ("gates", Trace.int (Circuit.length circuit)) ]
  @@ fun () ->
  let gates = Array.of_list (Circuit.gates circuit) in
  let n = Array.length gates in
  let depends i j =
    (* does gate j (later) depend on gate i (earlier)? *)
    match (gates.(i), gates.(j)) with
    | Gate.Barrier, _ | _, Gate.Barrier -> true
    | a, b -> not (Gate.commutes a b)
  in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  (* stamp.(i) = j: gate i was already reached while building gate j.
     Stamping with j resets every mark for the next gate for free. *)
  let stamp = Array.make n (-1) in
  for j = 0 to n - 1 do
    (* transitive reduction on the fly: skip i if some existing
       predecessor of j already (transitively) depends on i *)
    let rec mark i =
      if stamp.(i) <> j then begin
        stamp.(i) <- j;
        List.iter mark preds.(i)
      end
    in
    for i = j - 1 downto 0 do
      if stamp.(i) <> j && depends i j then begin
        preds.(j) <- i :: preds.(j);
        succs.(i) <- j :: succs.(i);
        mark i
      end
    done
  done;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  (* preds were consed largest-first, so they are already increasing *)
  { num_qubits = Circuit.num_qubits circuit; gates; preds; succs }

let num_nodes t = Array.length t.gates
let num_qubits t = t.num_qubits
let gate t id = t.gates.(id)
let nodes t = List.init (num_nodes t) (fun id -> { id; gate = t.gates.(id) })
let predecessors t id = t.preds.(id)
let successors t id = t.succs.(id)

let edges t =
  let out = ref [] in
  for i = num_nodes t - 1 downto 0 do
    List.iter (fun j -> out := (i, j) :: !out) (List.rev t.succs.(i))
  done;
  !out

let reachable t i j =
  if i >= j then false
  else begin
    (* walk j's predecessor cone down to i; [seen] memoizes explored
       nodes that provably do not reach i *)
    let seen = Hashtbl.create 16 in
    let rec go k =
      if k < i || Hashtbl.mem seen k then false
      else if k = i then true
      else begin
        Hashtbl.replace seen k ();
        List.exists go t.preds.(k)
      end
    in
    go j
  end

let random_linear_extension rng t =
  let n = num_nodes t in
  let indeg = Array.map List.length t.preds in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  let out = ref [] in
  for _ = 1 to n do
    let k = Rng.int rng (List.length !ready) in
    let id = List.nth !ready k in
    ready := List.filteri (fun i _ -> i <> k) !ready;
    out := id :: !out;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      t.succs.(id)
  done;
  List.rev !out

let circuit_of_order t order =
  let n = num_nodes t in
  let pos = Array.make n (-1) in
  let len = ref 0 in
  List.iteri
    (fun idx id ->
      incr len;
      if id < 0 || id >= n || pos.(id) >= 0 then
        invalid_arg "Commute.circuit_of_order: not a permutation of node ids";
      pos.(id) <- idx)
    order;
  if !len <> n then
    invalid_arg "Commute.circuit_of_order: not a permutation of node ids";
  Array.iteri
    (fun j ps ->
      List.iter
        (fun i ->
          if pos.(i) > pos.(j) then
            invalid_arg
              (Printf.sprintf
                 "Commute.circuit_of_order: order places gate %d before its \
                  dependency %d"
                 j i))
        ps)
    t.preds;
  Circuit.of_gates t.num_qubits (List.map (fun id -> t.gates.(id)) order)
