type t = { num_qubits : int; rev_gates : Gate.t list; len : int }

let create n =
  if n < 0 then invalid_arg "Circuit.create: negative qubit count";
  { num_qubits = n; rev_gates = []; len = 0 }

let check_gate t g =
  List.iter
    (fun q ->
      if q < 0 || q >= t.num_qubits then
        invalid_arg
          (Printf.sprintf "Circuit: qubit %d out of range (n=%d)" q
             t.num_qubits))
    (Gate.qubits g)

let append t g =
  check_gate t g;
  { t with rev_gates = g :: t.rev_gates; len = t.len + 1 }

let append_list t gs = List.fold_left append t gs
let of_gates n gs = append_list (create n) gs
let num_qubits t = t.num_qubits
let gates t = List.rev t.rev_gates
let length t = t.len

let concat a b =
  if a.num_qubits <> b.num_qubits then
    invalid_arg "Circuit.concat: qubit count mismatch";
  {
    num_qubits = a.num_qubits;
    rev_gates = b.rev_gates @ a.rev_gates;
    len = a.len + b.len;
  }

let map_qubits f t = of_gates t.num_qubits (List.map (Gate.map_qubits f) (gates t))

let with_num_qubits n t =
  if n < t.num_qubits then
    List.iter (fun g -> List.iter (fun q -> if q >= n then
      invalid_arg "Circuit.with_num_qubits: gate out of range") (Gate.qubits g))
      t.rev_gates;
  { t with num_qubits = n }

let filter p t =
  let kept = List.filter p t.rev_gates in
  { t with rev_gates = kept; len = List.length kept }

let used_qubits t =
  let module S = Set.Make (Int) in
  let set =
    List.fold_left
      (fun acc g -> List.fold_left (fun acc q -> S.add q acc) acc (Gate.qubits g))
      S.empty t.rev_gates
  in
  S.elements set

let measure_all t =
  append_list t (List.init t.num_qubits (fun q -> Gate.Measure q))

let equal a b =
  a.num_qubits = b.num_qubits
  && a.len = b.len
  && List.for_all2 Gate.equal a.rev_gates b.rev_gates

let pp ppf t =
  Format.fprintf ppf "circuit(%d qubits, %d gates):@." t.num_qubits t.len;
  List.iter (fun g -> Format.fprintf ppf "  %a@." Gate.pp g) (gates t)
