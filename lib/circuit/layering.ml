(* The one order-tied ASAP pass: each gate lands in layer
   max(fence, finish time of its qubits); a barrier moves the fence to
   the current depth.  Calls [f index gate layer] in program order
   ([layer = -1] for barriers) and returns the depth. *)
let scan circuit f =
  let free_at = Array.make (Circuit.num_qubits circuit) 0 in
  let fence = ref 0 in
  let depth = ref 0 in
  List.iteri
    (fun i g ->
      match g with
      | Gate.Barrier ->
        fence := !depth;
        f i g (-1)
      | _ ->
        let qs = Gate.qubits g in
        let layer =
          List.fold_left (fun acc q -> max acc free_at.(q)) !fence qs
        in
        List.iter (fun q -> free_at.(q) <- layer + 1) qs;
        depth := max !depth (layer + 1);
        f i g layer)
    (Circuit.gates circuit);
  !depth

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

let alap_layers circuit =
  (* ALAP = ASAP of the reversed circuit, layers then read back to front.
     Gate order inside each layer is irrelevant (layers are
     qubit-disjoint). *)
  let reversed =
    Circuit.of_gates (Circuit.num_qubits circuit)
      (List.rev (Circuit.gates circuit))
  in
  List.rev (layers reversed)

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
