module Circuit = Qaoa_circuit.Circuit
module Gate = Qaoa_circuit.Gate
module Layering = Qaoa_circuit.Layering
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Paths = Qaoa_graph.Paths
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type config = {
  lookahead_weight : float;
  reliability_aware : bool;
  deadline : Qaoa_obs.Deadline.t option;
}

let default_config =
  { lookahead_weight = 0.5; reliability_aware = false; deadline = None }

(* Every [route_layers] call restarts its tie-break stream here. *)
let seed = 17

exception Unroutable of string

type result = {
  circuit : Circuit.t;
  final_mapping : Mapping.t;
  swap_count : int;
}

type state = {
  device : Device.t;
  dist : Float_matrix.t;  (** scoring distances (hop or reliability-weighted) *)
  edges : (int * int) list;  (** coupling edges, computed once per route *)
  comp : int array;  (** connected-component id per physical qubit *)
  rng : Rng.t;
  mutable mapping : Mapping.t;
  mutable out : Circuit.t;
  mutable swaps : int;
}

let component_labels device =
  let comp = Array.make (Device.num_qubits device) (-1) in
  List.iteri
    (fun i vs -> List.iter (fun v -> comp.(v) <- i) vs)
    (Paths.connected_components device.Device.coupling);
  comp

(* SWAPs only move logical qubits along coupling edges, so component
   membership is invariant across routing: a two-qubit gate whose
   operands sit in different components can never be satisfied.  Detect
   it eagerly (per pending gate, once per layer) and fail with a
   structured exception instead of walking forever or dying on a bare
   [Not_found] from the path finder. *)
let check_pair_routable st (a, b) =
  let pa = Mapping.phys st.mapping a and pb = Mapping.phys st.mapping b in
  if st.comp.(pa) <> st.comp.(pb) then
    raise
      (Unroutable
         (Printf.sprintf
            "two-qubit gate on logical (%d, %d): physical hosts %d and %d \
             lie in disconnected components of %s"
            a b pa pb st.device.Device.name))

let pair_of_gate g =
  if Gate.is_two_qubit g then
    match Gate.qubits g with [ a; b ] -> Some (a, b) | _ -> None
  else None

let two_qubit_targets layer = List.filter_map pair_of_gate layer

let pair_distance st (a, b) =
  Float_matrix.get st.dist
    (Mapping.phys st.mapping a)
    (Mapping.phys st.mapping b)

(* Distance of a logical pair under a hypothetical mapping where physical
   qubits p and q have been exchanged. *)
let pair_distance_after_swap st p q (a, b) =
  let move x = if x = p then q else if x = q then p else x in
  let pa = move (Mapping.phys st.mapping a)
  and pb = move (Mapping.phys st.mapping b) in
  Float_matrix.get st.dist pa pb

let total_distance st pairs =
  List.fold_left (fun acc pr -> acc +. pair_distance st pr) 0.0 pairs

let total_distance_after_swap st p q pairs =
  List.fold_left
    (fun acc pr -> acc +. pair_distance_after_swap st p q pr)
    0.0 pairs

let gate_satisfied st g =
  match pair_of_gate g with
  | Some (a, b) ->
    Device.coupled st.device (Mapping.phys st.mapping a)
      (Mapping.phys st.mapping b)
  | None -> true

let emit_swap st p q =
  st.out <- Circuit.append st.out (Gate.Swap (p, q));
  st.mapping <- Mapping.swap_physical st.mapping p q;
  st.swaps <- st.swaps + 1;
  Metrics_registry.incr "router.swaps_inserted"

let emit_gate st g =
  st.out <- Circuit.append st.out (Gate.map_qubits (Mapping.phys st.mapping) g)

(* Candidate swaps: coupling edges with at least one endpoint hosting a
   logical qubit of a pending two-qubit gate. *)
let candidate_swaps st pending_pairs =
  let module S = Set.Make (Int) in
  let hot =
    List.fold_left
      (fun acc (a, b) ->
        S.add
          (Mapping.phys st.mapping a)
          (S.add (Mapping.phys st.mapping b) acc))
      S.empty pending_pairs
  in
  List.filter (fun (p, q) -> S.mem p hot || S.mem q hot) st.edges

(* One step of the closest pending pair along a hop-shortest path:
   strictly reduces that pair's hop distance, guaranteeing progress when
   no globally improving swap exists. *)
let walk_step st pending_pairs =
  let closest =
    List.fold_left
      (fun best pr ->
        match best with
        | None -> Some pr
        | Some b ->
          if pair_distance st pr < pair_distance st b then Some pr else best)
      None pending_pairs
  in
  match closest with
  | None -> ()
  | Some (a, b) -> (
    let pa = Mapping.phys st.mapping a and pb = Mapping.phys st.mapping b in
    (* pending pairs are at hop distance >= 2, so the path has at least
       three vertices; swapping the first edge brings the pair one hop
       closer. *)
    match Paths.shortest_path st.device.Device.coupling pa pb with
    | x :: y :: _ :: _ -> emit_swap st x y
    | _ -> ()
    | exception Not_found ->
      (* unreachable given [check_pair_routable], kept as a structured
         backstop against future component-invariant violations *)
      raise
        (Unroutable
           (Printf.sprintf "no path between physical %d and %d on %s" pa pb
              st.device.Device.name)))

(* Process one layer: emit every gate as soon as its qubits are coupled,
   choosing swaps that strictly decrease the summed distance of the
   still-pending two-qubit gates (next-layer pairs as a weighted
   tie-break).  Gates of a layer act on disjoint qubits, so emission
   order within the layer is irrelevant to semantics, and the ASAP
   re-layering of the result recovers the parallelism. *)
let process_layer config st layer lookahead_pairs =
  if Qaoa_obs.Config.enabled () then
    Metrics_registry.observe "router.layer_size"
      (float_of_int (List.length layer));
  (* 1-qubit gates (and measures/barriers) can go out immediately. *)
  let one_qubit, pending = List.partition (fun g -> pair_of_gate g = None) layer in
  List.iter (emit_gate st) one_qubit;
  List.iter (check_pair_routable st) (two_qubit_targets pending);
  let pending = ref pending in
  let flush () =
    let sat, rest = List.partition (gate_satisfied st) !pending in
    List.iter (emit_gate st) sat;
    pending := rest
  in
  flush ();
  (* Safety budget: the greedy loop is strictly decreasing in practice,
     but a pathological interleaving of improving swaps (weighted-sum
     criterion) and walk steps (hop criterion) could in principle cycle.
     Past the budget, pending gates are routed one at a time by direct
     walks, which always terminates. *)
  let n = Device.num_qubits st.device in
  let budget = ref (8 * n * (1 + List.length !pending)) in
  while !pending <> [] && !budget > 0 do
    decr budget;
    Qaoa_obs.Deadline.check config.deadline;
    let pairs = two_qubit_targets !pending in
    let current = total_distance st pairs in
    let scored =
      List.filter_map
        (fun (p, q) ->
          let primary = total_distance_after_swap st p q pairs in
          if primary < current -. 1e-12 then
            Some ((p, q), primary, total_distance_after_swap st p q lookahead_pairs)
          else None)
        (candidate_swaps st pairs)
    in
    Metrics_registry.incr "router.lookahead_candidates_scored"
      ~by:(List.length scored);
    (match scored with
    | [] ->
      Metrics_registry.incr "router.walk_steps";
      walk_step st pairs
    | _ ->
      let score (_, p, l) = p +. (config.lookahead_weight *. l) in
      let best =
        List.fold_left
          (fun acc cand ->
            match acc with
            | None -> Some cand
            | Some b ->
              let cb = score b and cc = score cand in
              if cc < cb -. 1e-12 then Some cand
              else if Float.abs (cc -. cb) <= 1e-12 && Rng.bool st.rng then
                Some cand
              else Some b)
          None scored
      in
      (match best with
      | Some ((p, q), _, _) -> emit_swap st p q
      | None -> assert false));
    flush ()
  done;
  List.iter
    (fun g ->
      (match pair_of_gate g with
      | Some pr ->
        while not (gate_satisfied st g) do
          Qaoa_obs.Deadline.check config.deadline;
          walk_step st [ pr ]
        done
      | None -> ());
      emit_gate st g)
    !pending

let check_allocation device mapping num_logical =
  if Mapping.num_logical mapping < num_logical then
    invalid_arg "Router: mapping covers fewer qubits than the circuit";
  if Mapping.num_physical mapping <> Device.num_qubits device then
    invalid_arg "Router: mapping sized for a different device"

let route_layers ?(config = default_config) ~device ~initial ~num_logical
    layers =
  check_allocation device initial num_logical;
  Trace.with_span "backend.router.route_layers"
    ~attrs:
      [
        ("layers", Trace.int (List.length layers));
        ("num_logical", Trace.int num_logical);
        ("reliability_aware", Trace.bool config.reliability_aware);
      ]
  @@ fun () ->
  let dist =
    if config.reliability_aware && Option.is_some device.Device.calibration
    then Profile.weighted_distances device
    else Profile.hop_distances device
  in
  let st =
    {
      device;
      dist;
      edges = Device.coupling_edges device;
      comp = component_labels device;
      rng = Rng.create seed;
      mapping = initial;
      out = Circuit.create (Device.num_qubits device);
      swaps = 0;
    }
  in
  (* Measurements are held back and emitted after every layer is routed,
     at the final mapping.  Emitting them in place is unsound: swaps
     inserted for later (or same-layer) gates may move a logical qubit
     after its wire was measured, making final-mapping readout
     inconsistent with the recorded outcome.  Terminal measurement is the
     model everywhere in this code base (circuits use [measure_all]), so
     deferral preserves semantics. *)
  let deferred_measures = ref [] in
  let strip_measures layer =
    List.filter
      (fun g ->
        match g with
        | Gate.Measure q ->
          deferred_measures := q :: !deferred_measures;
          false
        | _ -> true)
      layer
  in
  let rec process = function
    | [] -> ()
    | layer :: rest ->
      let lookahead_pairs =
        match rest with next :: _ -> two_qubit_targets next | [] -> []
      in
      process_layer config st (strip_measures layer) lookahead_pairs;
      process rest
  in
  process layers;
  List.iter
    (fun q -> emit_gate st (Gate.Measure q))
    (List.rev !deferred_measures);
  { circuit = st.out; final_mapping = st.mapping; swap_count = st.swaps }

let route ?config ~device ~initial circuit =
  route_layers ?config ~device ~initial
    ~num_logical:(Circuit.num_qubits circuit)
    (Layering.layers circuit)
