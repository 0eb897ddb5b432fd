module Graph = Qaoa_graph.Graph
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Mapping = Qaoa_backend.Mapping
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type config = { strength_order : int }

let default_config = { strength_order = 2 }

let argmax_random rng score = function
  | [] -> invalid_arg "Qaim: no candidates"
  | first :: rest ->
    let best, _, _ =
      List.fold_left
        (fun (bx, bs, nties) x ->
          let s = score x in
          if s > bs then (x, s, 1)
          else if s = bs then
            let nties = nties + 1 in
            if Rng.int rng nties = 0 then (x, bs, nties) else (bx, bs, nties)
          else (bx, bs, nties))
        (first, score first, 1)
        rest
    in
    best

let initial_mapping ?(config = default_config) rng device problem =
  let n = problem.Problem.num_vars in
  let num_physical = Device.num_qubits device in
  if n > num_physical then
    invalid_arg "Qaim.initial_mapping: problem larger than device";
  Trace.with_span "core.qaim.initial_mapping"
    ~attrs:[ ("num_vars", Trace.int n); ("num_physical", Trace.int num_physical) ]
  @@ fun () ->
  let strength =
    Profile.connectivity_profile ~order:config.strength_order device
  in
  let dist = Profile.hop_distances device in
  let pg = Problem.interaction_graph problem in
  let ops = Problem.ops_per_qubit problem in
  (* Step 1: logical qubits in descending CPHASE-count order (random
     tie-break via pre-shuffle + stable sort). *)
  let order =
    List.stable_sort
      (fun a b -> compare ops.(b) ops.(a))
      (Rng.shuffle_list rng (List.init n (fun i -> i)))
  in
  let l2p = Array.make n (-1) in
  let allocated = Hashtbl.create n in
  let free_qubits () =
    List.filter
      (fun p -> not (Hashtbl.mem allocated p))
      (List.init num_physical (fun i -> i))
  in
  let by_strength cands =
    argmax_random rng (fun p -> float_of_int strength.(p)) cands
  in
  let place l p =
    Metrics_registry.incr "qaim.placements";
    l2p.(l) <- p;
    Hashtbl.replace allocated p ()
  in
  (* Steps 2-4. *)
  List.iter
    (fun l ->
      let placed_neighbors =
        List.filter (fun nb -> l2p.(nb) >= 0) (Graph.neighbors pg l)
      in
      if placed_neighbors = [] then place l (by_strength (free_qubits ()))
      else begin
        (* Free physical neighbors of the placed neighbors' locations. *)
        let candidate_set = Hashtbl.create 8 in
        List.iter
          (fun nb ->
            List.iter
              (fun p ->
                if not (Hashtbl.mem allocated p) then
                  Hashtbl.replace candidate_set p ())
              (Graph.neighbors device.Device.coupling l2p.(nb)))
          placed_neighbors;
        let candidates = Hashtbl.fold (fun p () acc -> p :: acc) candidate_set [] in
        let candidates =
          if candidates = [] then free_qubits () else candidates
        in
        let cumulative_distance p =
          List.fold_left
            (fun acc nb -> acc +. Float_matrix.get dist p l2p.(nb))
            0.0 placed_neighbors
        in
        let metric p =
          float_of_int strength.(p) /. Float.max 1e-9 (cumulative_distance p)
        in
        Metrics_registry.incr "qaim.candidates_scored"
          ~by:(List.length candidates);
        place l (argmax_random rng metric candidates)
      end)
    order;
  Mapping.of_array ~num_physical l2p
