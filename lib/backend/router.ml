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
  hops : Float_matrix.t;  (** hop distances, infinite across components *)
  edges : (int * int) list;  (** coupling edges, memoized per device *)
  hot : bool array;  (** scratch: physical hosts of pending pairs *)
  rng : Rng.t Lazy.t;  (** tie-breaks, created at the first tie *)
  mutable mapping : Mapping.t;
  mutable out : Circuit.t;
  mutable swaps : int;
}

(* SWAPs only move logical qubits along coupling edges, so component
   membership is invariant across routing: a two-qubit gate whose
   operands sit in different components (infinite hop distance) can
   never be satisfied.  Detect it eagerly (per pending gate, once per
   layer) and fail with a structured exception instead of walking
   forever or dying on a bare [Not_found] from the path finder. *)
let check_pair_routable st (a, b) =
  let pa = Mapping.phys st.mapping a and pb = Mapping.phys st.mapping b in
  if Float_matrix.get st.hops pa pb = Float.infinity then
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

(* The two-qubit gates of a layer, each with its logical pair. *)
let two_qubit_gates layer =
  List.filter_map (fun g -> Option.map (fun pr -> (g, pr)) (pair_of_gate g)) layer

let pair_distance st (a, b) =
  Float_matrix.get st.dist
    (Mapping.phys st.mapping a)
    (Mapping.phys st.mapping b)

let satisfied st (a, b) =
  Device.coupled st.device (Mapping.phys st.mapping a) (Mapping.phys st.mapping b)

(* Physical ends of the gates' pairs into [pa] and [pb]; the count. *)
let read_ends st gates pa pb =
  List.fold_left
    (fun i (_, (a, b)) ->
      pa.(i) <- Mapping.phys st.mapping a;
      pb.(i) <- Mapping.phys st.mapping b;
      i + 1)
    0 gates

(* Where physical qubit x sits once p and q are exchanged. *)
let moved p q (x : int) = if x = p then q else if x = q then p else x

(* Summed distance of the first k pairs pa.(i)-pb.(i) after a SWAP of
   physical p and q (p = q = -1: no SWAP), added in pair order. *)
let summed_distance dist pa pb k p q =
  let sum = ref 0.0 in
  for i = 0 to k - 1 do
    sum := !sum +. Float_matrix.get dist (moved p q pa.(i)) (moved p q pb.(i))
  done;
  !sum

let emit_swap st p q =
  st.out <- Circuit.append st.out (Gate.Swap (p, q));
  st.mapping <- Mapping.swap_physical st.mapping p q;
  st.swaps <- st.swaps + 1;
  Metrics_registry.incr "router.swaps_inserted"

let emit_gate st g =
  st.out <- Circuit.append st.out (Gate.map_qubits (Mapping.phys st.mapping) g)

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

(* The best SWAP for the pending pairs (ends in [pa]/[pb], [np] of
   them), or [None] when none strictly decreases their summed
   distance.  Candidates are the coupling edges touching a pending
   pair's host, taken in edge order; among the improving ones the
   lowest primary + lookahead-weighted score wins, exact ties broken
   by seeded coin flips.  Allocates nothing per candidate. *)
let best_swap config st pa pb np la lb nl =
  for i = 0 to np - 1 do
    st.hot.(pa.(i)) <- true;
    st.hot.(pb.(i)) <- true
  done;
  let current = summed_distance st.dist pa pb np (-1) (-1) in
  let best = ref Float.infinity and best_p = ref (-1) and best_q = ref (-1) in
  let scored = ref 0 in
  List.iter
    (fun (p, q) ->
      if st.hot.(p) || st.hot.(q) then begin
        let primary = summed_distance st.dist pa pb np p q in
        if primary < current -. 1e-12 then begin
          incr scored;
          let score =
            primary
            +. (config.lookahead_weight *. summed_distance st.dist la lb nl p q)
          in
          if
            !best_p < 0
            || score < !best -. 1e-12
            || (Float.abs (score -. !best) <= 1e-12 && Rng.bool (Lazy.force st.rng))
          then begin
            best := score;
            best_p := p;
            best_q := q
          end
        end
      end)
    st.edges;
  for i = 0 to np - 1 do
    st.hot.(pa.(i)) <- false;
    st.hot.(pb.(i)) <- false
  done;
  Metrics_registry.incr "router.lookahead_candidates_scored" ~by:!scored;
  if !best_p < 0 then None else Some (!best_p, !best_q)

(* Process one layer: emit every gate as soon as its qubits are coupled,
   choosing swaps that strictly decrease the summed distance of the
   still-pending two-qubit gates (next-layer pairs as a weighted
   tie-break).  Gates of a layer act on disjoint qubits, so emission
   order within the layer is irrelevant to semantics, and the ASAP
   re-layering of the result recovers the parallelism. *)
let process_layer config st layer lookahead =
  if Qaoa_obs.Config.enabled () then
    Metrics_registry.observe "router.layer_size"
      (float_of_int (List.length layer));
  (* 1-qubit gates (and measures/barriers) can go out immediately. *)
  let one_qubit, two_qubit = List.partition (fun g -> pair_of_gate g = None) layer in
  List.iter (emit_gate st) one_qubit;
  let pending = ref (two_qubit_gates two_qubit) in
  List.iter (fun (_, pr) -> check_pair_routable st pr) !pending;
  let flush () =
    let sat, rest = List.partition (fun (_, pr) -> satisfied st pr) !pending in
    List.iter (fun (g, _) -> emit_gate st g) sat;
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
  let pa = Array.make (List.length !pending) 0 in
  let pb = Array.copy pa in
  let la = Array.make (List.length lookahead) 0 in
  let lb = Array.copy la in
  while !pending <> [] && !budget > 0 do
    decr budget;
    Qaoa_obs.Deadline.check config.deadline;
    let np = read_ends st !pending pa pb and nl = read_ends st lookahead la lb in
    (match best_swap config st pa pb np la lb nl with
    | Some (p, q) -> emit_swap st p q
    | None ->
      Metrics_registry.incr "router.walk_steps";
      walk_step st (List.map snd !pending));
    flush ()
  done;
  List.iter
    (fun (g, pr) ->
      while not (satisfied st pr) do
        Qaoa_obs.Deadline.check config.deadline;
        walk_step st [ pr ]
      done;
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
      hops = Profile.hop_distances device;
      edges = Profile.coupling_edges device;
      hot = Array.make (Device.num_qubits device) false;
      rng = lazy (Rng.create seed);
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
      let lookahead =
        match rest with next :: _ -> two_qubit_gates next | [] -> []
      in
      process_layer config st (strip_measures layer) lookahead;
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
