type schedule = { free_at : int array; mutable fence : int; mutable depth : int }

let schedule n = { free_at = Array.make n 0; fence = 0; depth = 0 }
let scheduled_depth s = s.depth

let finish s layer =
  if layer >= s.depth then s.depth <- layer + 1;
  layer

(* The one order-tied ASAP rule: each gate lands in layer
   max(fence, finish time of its qubits); a barrier moves the fence to
   the current depth.  Matched by pattern, so placing allocates
   nothing. *)
let place s (g : Gate.t) =
  match g with
  | Barrier ->
    s.fence <- s.depth;
    -1
  | Cnot (a, b) | Cphase (a, b, _) | Swap (a, b) ->
    let layer = max (max s.fence s.free_at.(a)) s.free_at.(b) in
    s.free_at.(a) <- layer + 1;
    s.free_at.(b) <- layer + 1;
    finish s layer
  | H q | X q | Y q | Z q | Rx (q, _) | Ry (q, _) | Rz (q, _) | Phase (q, _)
  | Measure q ->
    let layer = max s.fence s.free_at.(q) in
    s.free_at.(q) <- layer + 1;
    finish s layer

(* Calls [f index gate layer] in program order and returns the depth. *)
let scan circuit f =
  let s = schedule (Circuit.num_qubits circuit) in
  List.iteri (fun i g -> f i g (place s g)) (Circuit.gates circuit);
  s.depth

let gate_layers circuit =
  let out = Array.make (Circuit.length circuit) (-1) in
  ignore (scan circuit (fun i _ layer -> out.(i) <- layer));
  out

let depth circuit = scan circuit (fun _ _ _ -> ())

let layers circuit =
  let placed = ref [] in
  let depth =
    scan circuit (fun _ g layer -> if layer >= 0 then placed := (g, layer) :: !placed)
  in
  (* [placed] is in reverse program order, so consing restores it *)
  let buckets = Array.make depth [] in
  List.iter (fun (g, l) -> buckets.(l) <- g :: buckets.(l)) !placed;
  Array.to_list buckets

let check_layers_disjoint layers =
  List.for_all
    (fun layer ->
      let module S = Set.Make (Int) in
      let rec go seen = function
        | [] -> true
        | g :: rest ->
          let qs = Gate.qubits g in
          if List.exists (fun q -> S.mem q seen) qs then false
          else go (List.fold_left (fun s q -> S.add q s) seen qs) rest
      in
      go S.empty layer)
    layers
