module Graph = Qaoa_graph.Graph
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Mapping = Qaoa_backend.Mapping
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng

let argmax_random ?rng score = function
  | [] -> invalid_arg "Greedy_mapper: no candidates"
  | first :: rest ->
    let best, _, _ =
      List.fold_left
        (fun ((bx, bs, nties) as best) x ->
          let s = score x in
          if s > bs then (x, s, 1)
          else if s = bs then
            match rng with
            | None -> best
            | Some rng ->
              (* reservoir sampling over ties keeps the draw uniform *)
              let nties = nties + 1 in
              if Rng.int rng nties = 0 then (x, bs, nties) else (bx, bs, nties)
          else best)
        (first, score first, 1)
        rest
    in
    best

let free_qubits free =
  let rec collect p acc =
    if p < 0 then acc else collect (p - 1) (if free.(p) then p :: acc else acc)
  in
  collect (Array.length free - 1) []

let place_heaviest_first ?(random_ties = true) rng device problem ~candidates
    ~score =
  let ops = Problem.ops_per_qubit problem in
  let order =
    List.stable_sort
      (fun a b -> compare ops.(b) ops.(a))
      (Rng.shuffle_list rng (List.init problem.Problem.num_vars Fun.id))
  in
  let dist = Profile.hop_distances device in
  let pg = Problem.interaction_graph problem in
  let num_physical = Device.num_qubits device in
  let free = Array.make num_physical true in
  let l2p = Array.make problem.Problem.num_vars (-1) in
  let rng = if random_ties then Some rng else None in
  List.iter
    (fun l ->
      let locs =
        List.filter_map
          (fun nb -> if l2p.(nb) >= 0 then Some l2p.(nb) else None)
          (Graph.neighbors pg l)
      in
      let distance p =
        List.fold_left (fun acc q -> acc +. Float_matrix.get dist p q) 0.0 locs
      in
      let p = argmax_random ?rng (score locs distance) (candidates ~free locs) in
      l2p.(l) <- p;
      free.(p) <- false)
    order;
  Mapping.of_array ~num_physical l2p

let greedy_v rng device problem =
  let deg p = float_of_int (Graph.degree device.Device.coupling p) in
  place_heaviest_first rng device problem
    ~candidates:(fun ~free _ -> free_qubits free)
    ~score:(fun locs distance p -> if locs = [] then deg p else -.distance p)

let greedy_e rng device problem =
  (* All QAOA pairs interact exactly once per level, so the
     heaviest-edge order degenerates to a random edge order. *)
  let dist = Profile.hop_distances device in
  let coupling = device.Device.coupling in
  let deg p = Graph.degree coupling p in
  let n = problem.Problem.num_vars in
  let edges = Rng.shuffle_list rng (Problem.cphase_pairs problem) in
  let l2p = Array.make n (-1) in
  let free = Array.make (Device.num_qubits device) true in
  let place l p =
    l2p.(l) <- p;
    free.(p) <- false
  in
  let by_degree cands = argmax_random ~rng (fun p -> float_of_int (deg p)) cands in
  let place_one_near anchor l =
    (* Free physical qubit closest to [anchor], preferring couplings. *)
    match List.filter (Array.get free) (Graph.neighbors coupling anchor) with
    | [] ->
      place l
        (argmax_random ~rng
           (fun p -> -.Float_matrix.get dist p anchor)
           (free_qubits free))
    | cands -> place l (by_degree cands)
  in
  List.iter
    (fun (a, b) ->
      match (l2p.(a) >= 0, l2p.(b) >= 0) with
      | true, true -> ()
      | true, false -> place_one_near l2p.(a) b
      | false, true -> place_one_near l2p.(b) a
      | false, false -> (
        (* Free coupled pair with the largest degree sum. *)
        match
          List.filter
            (fun (p, q) -> free.(p) && free.(q))
            (Profile.coupling_edges device)
        with
        | [] ->
          let p = by_degree (free_qubits free) in
          place a p;
          place_one_near p b
        | coupled_free ->
          let p, q =
            argmax_random ~rng
              (fun (p, q) -> float_of_int (deg p + deg q))
              coupled_free
          in
          place a p;
          place b q))
    edges;
  (* Isolated variables (no quadratic term) still need homes. *)
  for l = 0 to n - 1 do
    if l2p.(l) < 0 then place l (by_degree (free_qubits free))
  done;
  Mapping.of_array ~num_physical:(Device.num_qubits device) l2p
