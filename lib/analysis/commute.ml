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
  ancestors : int array array;
}

(* [ancestors.(j)] is a bitset over [0, j): gate [i] sits at bit
   [i mod word_bits] of word [i / word_bits], and is set iff there is a
   path [i -> ... -> j]. *)
let word_bits = Sys.int_size

let mem bits i = bits.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(* Visit the union of two decreasing index lists in decreasing order,
   each index once. *)
let rec walk visit l1 l2 =
  match (l1, l2) with
  | [], l | l, [] -> List.iter visit l
  | i :: r1, k :: r2 ->
    if i > k then (visit i; walk visit r1 l2)
    else if k > i then (visit k; walk visit l1 r2)
    else (visit i; walk visit r1 r2)

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
  let ancestors = Array.make n [||] in
  (* on.(q): the gates on qubit q since the last Barrier, latest first *)
  let on = Array.make (Circuit.num_qubits circuit) [] in
  let barrier = ref (-1) in
  for j = 0 to n - 1 do
    let anc = Array.make ((j + word_bits - 1) / word_bits) 0 in
    (* Candidates arrive in decreasing order, as in a scan over every
       earlier gate, so the reduction keeps the same edges: a candidate
       already below a chosen predecessor is skipped, and a new edge
       takes in the candidate and its ancestors. *)
    let visit i =
      if (not (mem anc i)) && depends i j then begin
        preds.(j) <- i :: preds.(j);
        succs.(i) <- j :: succs.(i);
        let a = ancestors.(i) in
        for w = 0 to Array.length a - 1 do
          anc.(w) <- anc.(w) lor a.(w)
        done;
        let w = i / word_bits in
        anc.(w) <- anc.(w) lor (1 lsl (i mod word_bits))
      end
    in
    (* Off j's wires every gate commutes with j, and below the last
       Barrier every gate is already an ancestor of that Barrier: so
       visit j's wires back to the Barrier (every gate for a Barrier),
       then the Barrier itself. *)
    let qubits = Gate.qubits gates.(j) in
    (match qubits with
    | [] ->
      for i = j - 1 downto !barrier + 1 do
        visit i
      done
    | [ q ] -> List.iter visit on.(q)
    | a :: b :: _ -> walk visit on.(a) on.(b));
    if !barrier >= 0 then visit !barrier;
    ancestors.(j) <- anc;
    match qubits with
    | [] ->
      barrier := j;
      Array.fill on 0 (Array.length on) []
    | qs -> List.iter (fun q -> on.(q) <- j :: on.(q)) qs
  done;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  (* preds were consed largest-first, so they are already increasing *)
  { num_qubits = Circuit.num_qubits circuit; gates; preds; succs; ancestors }

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

let reachable t i j = i < j && mem t.ancestors.(j) i

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
