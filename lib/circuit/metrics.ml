type t = {
  depth : int;
  gate_count : int;
  two_qubit_count : int;
  measure_count : int;
}

(* One walk over the circuit: each gate's basis lowering is counted and
   placed by the ASAP rule as it comes, with no decomposed circuit
   built. *)
let of_circuit c =
  let s = Layering.schedule (Circuit.num_qubits c) in
  let gate_count = ref 0 in
  let two_qubit_count = ref 0 in
  let measure_count = ref 0 in
  let count g =
    ignore (Layering.place s g : int);
    match g with
    | Gate.Barrier -> ()
    | Gate.Measure _ -> incr measure_count
    | _ ->
      incr gate_count;
      if Gate.is_two_qubit g then incr two_qubit_count
  in
  List.iter (fun g -> List.iter count (Decompose.gate g)) (Circuit.gates c);
  {
    depth = Layering.scheduled_depth s;
    gate_count = !gate_count;
    two_qubit_count = !two_qubit_count;
    measure_count = !measure_count;
  }

let counts_by_name c =
  let d = Decompose.circuit c in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun g ->
      match g with
      | Gate.Barrier -> ()
      | _ ->
        let k = Gate.name g in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Circuit.gates d);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let pp ppf t =
  Format.fprintf ppf "depth=%d gates=%d cx=%d measures=%d" t.depth
    t.gate_count t.two_qubit_count t.measure_count
