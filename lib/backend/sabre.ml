module Circuit = Qaoa_circuit.Circuit
module Gate = Qaoa_circuit.Gate
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Paths = Qaoa_graph.Paths
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

(* The heuristic's fixed constants: upcoming 2q gates in the lookahead,
   its weight, the per-swap decay bump, swaps between decay resets, and
   the tie-break stream's seed. *)
let extended_window = 20
let extended_weight = 0.5
let decay_increment = 0.001
let decay_reset_interval = 5
let seed = 17

type state = {
  device : Device.t;
  dist : Float_matrix.t;
  edges : (int * int) list;
  rng : Rng.t;
  gates : Gate.t array;
  succs : int list array;  (** dependency successors *)
  indeg : int array;
  executed : bool array;
  decay : float array;  (** per physical qubit, >= 1 *)
  mutable mapping : Mapping.t;
  mutable out : Circuit.t;
  mutable swaps : int;
  mutable swaps_since_reset : int;
}

(* Per-qubit chain dependencies: gate i depends on the most recent earlier
   gate sharing a qubit with it; barriers link to everything around them. *)
let build_dependencies gates num_qubits =
  let m = Array.length gates in
  let succs = Array.make m [] in
  let indeg = Array.make m 0 in
  let last_on = Array.make num_qubits (-1) in
  let last_barrier = ref (-1) in
  let add_edge i j =
    succs.(i) <- j :: succs.(i);
    indeg.(j) <- indeg.(j) + 1
  in
  Array.iteri
    (fun j g ->
      match g with
      | Gate.Barrier ->
        (* depends on every chain tail *)
        let preds = ref [] in
        Array.iter (fun l -> if l >= 0 && not (List.mem l !preds) then preds := l :: !preds) last_on;
        if !last_barrier >= 0 && not (List.mem !last_barrier !preds) then
          preds := !last_barrier :: !preds;
        List.iter (fun i -> add_edge i j) !preds;
        last_barrier := j;
        Array.iteri (fun q _ -> last_on.(q) <- j) last_on
      | _ ->
        let preds = ref [] in
        List.iter
          (fun q ->
            let l = last_on.(q) in
            if l >= 0 && not (List.mem l !preds) then preds := l :: !preds)
          (Gate.qubits g);
        if !preds = [] && !last_barrier >= 0 then preds := [ !last_barrier ];
        List.iter (fun i -> add_edge i j) !preds;
        List.iter (fun q -> last_on.(q) <- j) (Gate.qubits g))
    gates;
  (succs, indeg)

let pair_of_gate g =
  if Gate.is_two_qubit g then
    match Gate.qubits g with [ a; b ] -> Some (a, b) | _ -> None
  else None

let gate_executable st i =
  match pair_of_gate st.gates.(i) with
  | None -> true
  | Some (a, b) ->
    Device.coupled st.device (Mapping.phys st.mapping a)
      (Mapping.phys st.mapping b)

let emit st i =
  st.out <-
    Circuit.append st.out
      (Gate.map_qubits (Mapping.phys st.mapping) st.gates.(i));
  st.executed.(i) <- true

let emit_swap st p q =
  st.out <- Circuit.append st.out (Gate.Swap (p, q));
  st.mapping <- Mapping.swap_physical st.mapping p q;
  st.swaps <- st.swaps + 1;
  Metrics_registry.incr "sabre.swaps_inserted";
  st.decay.(p) <- st.decay.(p) +. decay_increment;
  st.decay.(q) <- st.decay.(q) +. decay_increment

let distance_after st p q (a, b) =
  let move x = if x = p then q else if x = q then p else x in
  Float_matrix.get st.dist
    (move (Mapping.phys st.mapping a))
    (move (Mapping.phys st.mapping b))

(* first [w] not-yet-executed two-qubit gates beyond the front, in program
   order - the extended (lookahead) set *)
let extended_set st front w =
  let module S = Set.Make (Int) in
  let in_front = S.of_list front in
  let acc = ref [] and n = ref 0 in
  (try
     Array.iteri
       (fun i g ->
         if !n >= w then raise Exit;
         if (not st.executed.(i)) && not (S.mem i in_front) then
           match pair_of_gate g with
           | Some pr ->
             acc := pr :: !acc;
             incr n
           | None -> ())
       st.gates
   with Exit -> ());
  !acc

let walk_step st (a, b) =
  let pa = Mapping.phys st.mapping a and pb = Mapping.phys st.mapping b in
  match Paths.shortest_path st.device.Device.coupling pa pb with
  | x :: y :: _ :: _ -> emit_swap st x y
  | _ -> ()

let route ~device ~initial circuit =
  if Mapping.num_logical initial < Circuit.num_qubits circuit then
    invalid_arg "Sabre: mapping covers fewer qubits than the circuit";
  if Mapping.num_physical initial <> Device.num_qubits device then
    invalid_arg "Sabre: mapping sized for a different device";
  Trace.with_span "backend.sabre.route"
    ~attrs:
      [
        ("gates", Trace.int (List.length (Circuit.gates circuit)));
        ("num_logical", Trace.int (Circuit.num_qubits circuit));
      ]
  @@ fun () ->
  let gates = Array.of_list (Circuit.gates circuit) in
  let succs, indeg = build_dependencies gates (Circuit.num_qubits circuit) in
  let st =
    {
      device;
      dist = Profile.hop_distances device;
      edges = Device.coupling_edges device;
      rng = Rng.create seed;
      gates;
      succs;
      indeg;
      executed = Array.make (Array.length gates) false;
      decay = Array.make (Device.num_qubits device) 1.0;
      mapping = initial;
      out = Circuit.create (Device.num_qubits device);
      swaps = 0;
      swaps_since_reset = 0;
    }
  in
  let front = ref [] in
  Array.iteri (fun i d -> if d = 0 then front := i :: !front) st.indeg;
  front := List.rev !front;
  let release i =
    List.iter
      (fun j ->
        st.indeg.(j) <- st.indeg.(j) - 1;
        if st.indeg.(j) = 0 then front := !front @ [ j ])
      (List.rev st.succs.(i))
  in
  let comp = Router.component_labels device in
  let check_routable (a, b) =
    let pa = Mapping.phys st.mapping a and pb = Mapping.phys st.mapping b in
    if comp.(pa) <> comp.(pb) then
      raise
        (Router.Unroutable
           (Printf.sprintf
              "two-qubit gate on logical (%d, %d): physical hosts %d and %d \
               lie in disconnected components of %s"
              a b pa pb device.Device.name))
  in
  let stuck = ref 0 in
  let max_stuck = 8 * Device.num_qubits device in
  while !front <> [] do
    let executable, blocked = List.partition (gate_executable st) !front in
    if executable <> [] then begin
      stuck := 0;
      front := blocked;
      List.iter
        (fun i ->
          emit st i;
          release i)
        executable
    end
    else begin
      incr stuck;
      let front_pairs = List.filter_map (fun i -> pair_of_gate st.gates.(i)) blocked in
      List.iter check_routable front_pairs;
      if !stuck > max_stuck then begin
        (* safety: force progress on the closest blocked pair *)
        match front_pairs with
        | pr :: _ -> walk_step st pr
        | [] -> assert false
      end
      else begin
        let ext = extended_set st blocked extended_window in
        let module S = Set.Make (Int) in
        let hot =
          List.fold_left
            (fun acc (a, b) ->
              S.add (Mapping.phys st.mapping a)
                (S.add (Mapping.phys st.mapping b) acc))
            S.empty front_pairs
        in
        let candidates =
          List.filter (fun (p, q) -> S.mem p hot || S.mem q hot) st.edges
        in
        if Qaoa_obs.Config.enabled () then begin
          Metrics_registry.incr "sabre.candidates_scored"
            ~by:(List.length candidates);
          Metrics_registry.observe "sabre.front_size"
            (float_of_int (List.length front_pairs))
        end;
        let nf = float_of_int (max 1 (List.length front_pairs)) in
        let ne = float_of_int (max 1 (List.length ext)) in
        let score (p, q) =
          let fsum =
            List.fold_left
              (fun acc pr -> acc +. distance_after st p q pr)
              0.0 front_pairs
          in
          let esum =
            List.fold_left
              (fun acc pr -> acc +. distance_after st p q pr)
              0.0 ext
          in
          Float.max st.decay.(p) st.decay.(q)
          *. ((fsum /. nf) +. (extended_weight *. esum /. ne))
        in
        let best =
          List.fold_left
            (fun acc cand ->
              match acc with
              | None -> Some (cand, score cand)
              | Some (_, bs) ->
                let cs = score cand in
                if cs < bs -. 1e-12 then Some (cand, cs)
                else if Float.abs (cs -. bs) <= 1e-12 && Rng.bool st.rng then
                  Some (cand, cs)
                else acc)
            None candidates
        in
        match best with
        | Some ((p, q), _) ->
          emit_swap st p q;
          st.swaps_since_reset <- st.swaps_since_reset + 1;
          if st.swaps_since_reset >= decay_reset_interval then begin
            Array.fill st.decay 0 (Array.length st.decay) 1.0;
            st.swaps_since_reset <- 0
          end
        | None -> (
          match front_pairs with
          | pr :: _ -> walk_step st pr
          | [] -> assert false)
      end
    end
  done;
  {
    Router.circuit = st.out;
    final_mapping = st.mapping;
    swap_count = st.swaps;
  }
