module Graph = Qaoa_graph.Graph
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type config = { strength_order : int }

let default_config = { strength_order = 2 }

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
  (* Free physical neighbors of the placed neighbors' locations, listed
     in the fold order of an 8-bucket table: ties follow that order. *)
  let near ~free locs =
    let set = Hashtbl.create 8 in
    List.iter
      (fun loc ->
        List.iter
          (fun p -> if free.(p) then Hashtbl.replace set p ())
          (Graph.neighbors device.Device.coupling loc))
      locs;
    Hashtbl.fold (fun p () acc -> p :: acc) set []
  in
  (* With no placed neighbor every distance is 0, so strength alone
     ranks the free qubits. *)
  Greedy_mapper.place_heaviest_first rng device problem
    ~candidates:(fun ~free locs ->
      Metrics_registry.incr "qaim.placements";
      let cands =
        match near ~free locs with
        | [] -> Greedy_mapper.free_qubits free
        | cands -> cands
      in
      if locs <> [] then
        Metrics_registry.incr "qaim.candidates_scored" ~by:(List.length cands);
      cands)
    ~score:(fun _ distance p ->
      float_of_int strength.(p) /. Float.max 1e-9 (distance p))
