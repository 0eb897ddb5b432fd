module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Device = Qaoa_hardware.Device
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router

let serpentine_line ~rows ~cols =
  List.concat
    (List.init rows (fun r ->
         let row = List.init cols (fun c -> (r * cols) + c) in
         if r mod 2 = 0 then row else List.rev row))

let check_line device line k =
  let n = List.length line in
  if n < k then invalid_arg "Swap_network.compile: line shorter than problem";
  if List.length (List.sort_uniq compare line) <> n then
    invalid_arg "Swap_network.compile: line revisits a qubit";
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      if not (Device.coupled device a b) then
        invalid_arg "Swap_network.compile: line is not a coupled path";
      adjacent rest
    | _ -> ()
  in
  adjacent line

let compile ?(measure = true) ~line device problem params =
  let k = problem.Problem.num_vars in
  check_line device line k;
  let positions = Array.of_list line in
  let initial =
    Mapping.of_array
      ~num_physical:(Device.num_qubits device)
      (Array.sub positions 0 k)
  in
  let mapping = ref initial in
  let out = ref (Circuit.create (Device.num_qubits device)) in
  let swaps = ref 0 in
  let emit g = out := Circuit.append !out g in
  let logical_at_slot slot =
    (* slots index the first k line positions *)
    match Mapping.logical_at !mapping positions.(slot) with
    | Some l -> l
    | None -> assert false (* the network permutes only occupied slots *)
  in
  let p = Ansatz.levels params in
  for level = 0 to p - 1 do
    let gamma = params.Ansatz.gammas.(level) in
    let cphase = Ansatz.cphase_gate problem ~gamma in
    if level = 0 then
      for l = 0 to k - 1 do
        emit (Gate.H (Mapping.phys !mapping l))
      done;
    (* odd-even transposition: k rounds, each adjacent meeting emits the
       pair's CPHASE (if coupled) then the unconditional SWAP *)
    for round = 0 to k - 1 do
      let slot = ref (round mod 2) in
      while !slot + 1 < k do
        let a = logical_at_slot !slot and b = logical_at_slot (!slot + 1) in
        let pa = positions.(!slot) and pb = positions.(!slot + 1) in
        (* a meeting that is not a problem edge emits no CPHASE *)
        (match cphase (a, b) with
        | g -> emit (Gate.map_qubits (fun l -> if l = a then pa else pb) g)
        | exception Invalid_argument _ -> ());
        emit (Gate.Swap (pa, pb));
        mapping := Mapping.swap_physical !mapping pa pb;
        incr swaps;
        slot := !slot + 2
      done
    done;
    (* linear terms and the mixer wall at the current mapping *)
    List.iter
      (fun g -> emit (Gate.map_qubits (Mapping.phys !mapping) g))
      (Ansatz.linear_gates problem ~gamma);
    List.iter
      (fun g -> emit (Gate.map_qubits (Mapping.phys !mapping) g))
      (Ansatz.mixer_gates problem ~beta:params.Ansatz.betas.(level))
  done;
  if measure then
    for l = 0 to k - 1 do
      emit (Gate.Measure (Mapping.phys !mapping l))
    done;
  { Router.circuit = !out; final_mapping = !mapping; swap_count = !swaps }
