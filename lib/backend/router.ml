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

(* Two-qubit pairs by their physical ends, in list order, and the pair
   each physical qubit hosts: the pending pairs of the layer being
   routed, or the next layer's.  Sized for a full layer on the device
   (at most one pair per two qubits) and reused layer after layer. *)
type pairs = {
  a : int array;
  b : int array;
  gate : Gate.t array;
  host : int array;  (** physical qubit -> index of its pair, or -1 *)
  mutable n : int;
}

let pairs_for num_physical =
  let size = num_physical / 2 in
  {
    a = Array.make size 0;
    b = Array.make size 0;
    gate = Array.make size Gate.Barrier;
    host = Array.make num_physical (-1);
    n = 0;
  }

type state = {
  device : Device.t;
  dist : Float_matrix.t;  (** scoring distances (hop or reliability-weighted) *)
  hops : Float_matrix.t;  (** hop distances, infinite across components *)
  integral : bool;  (** [dist] is [hops]: its sums are exact *)
  eu : int array;  (** coupling edges' first ends, memoized per device *)
  ev : int array;  (** their second ends, in the same order *)
  l2p : int array;  (** the mapping, updated in place by each SWAP *)
  p2l : int array;
  pend : pairs;
  look : pairs;
  rng : Rng.t Lazy.t;  (** tie-breaks, created at the first tie *)
  mutable out : Circuit.t;
  mutable swaps : int;
}

(* Physical host of logical [l], with [Mapping.phys]'s range check. *)
let phys st l =
  if l < 0 || l >= Array.length st.l2p then
    invalid_arg "Mapping.phys: logical qubit out of range";
  st.l2p.(l)

(* Append the pair of a two-qubit gate to [pairs]; false for any other
   gate.  The scorer relies on a layer's pairs touching disjoint qubits,
   so a qubit that already hosts one is refused here. *)
let add_gate st pairs g =
  match g with
  | Gate.Cnot (a, b) | Gate.Cphase (a, b, _) | Gate.Swap (a, b) ->
    let pa = phys st a and pb = phys st b in
    if pa = pb || pairs.host.(pa) >= 0 || pairs.host.(pb) >= 0 then
      invalid_arg
        (Printf.sprintf "Router: two-qubit gates of one layer overlap at logical (%d, %d)"
           a b);
    let i = pairs.n in
    pairs.a.(i) <- pa;
    pairs.b.(i) <- pb;
    pairs.gate.(i) <- g;
    pairs.host.(pa) <- i;
    pairs.host.(pb) <- i;
    pairs.n <- i + 1;
    true
  | _ -> false

let clear pairs =
  for i = 0 to pairs.n - 1 do
    pairs.host.(pairs.a.(i)) <- -1;
    pairs.host.(pairs.b.(i)) <- -1
  done;
  pairs.n <- 0

(* SWAPs only move logical qubits along coupling edges, so component
   membership is invariant across routing: a two-qubit gate whose
   operands sit in different components (infinite hop distance) can
   never be satisfied.  Detect it eagerly (per pending gate, once per
   layer) and fail with a structured exception instead of walking
   forever or dying on a bare [Not_found] from the path finder. *)
let check_pair_routable st i =
  let pa = st.pend.a.(i) and pb = st.pend.b.(i) in
  if Float_matrix.get st.hops pa pb = Float.infinity then
    raise
      (Unroutable
         (Printf.sprintf
            "two-qubit gate on logical (%d, %d): physical hosts %d and %d \
             lie in disconnected components of %s"
            st.p2l.(pa) st.p2l.(pb) pa pb st.device.Device.name))

let coupled st p q = Float_matrix.get st.hops p q = 1.0

(* Where physical qubit x sits once p and q are exchanged. *)
let[@inline] moved p q (x : int) = if x = p then q else if x = q then p else x

(* Summed distance of [pairs] after a SWAP of physical p and q (p = q =
   -1: no SWAP), added in pair order. *)
let summed dist pairs p q =
  let sum = ref 0.0 in
  for i = 0 to pairs.n - 1 do
    sum := !sum +. Float_matrix.get dist (moved p q pairs.a.(i)) (moved p q pairs.b.(i))
  done;
  !sum

(* What a SWAP of p and q changes in pair i's distance. *)
let[@inline] pair_change dist pairs i p q =
  let a = pairs.a.(i) and b = pairs.b.(i) in
  Float_matrix.get dist (moved p q a) (moved p q b) -. Float_matrix.get dist a b

(* What a SWAP of p and q changes in the summed distance of [pairs]: the
   pairs touch disjoint qubits, so only the (at most two) pairs that p
   and q host move. *)
let[@inline] change dist pairs p q =
  let i = pairs.host.(p) and j = pairs.host.(q) in
  let di = if i < 0 then 0.0 else pair_change dist pairs i p q in
  if j < 0 || j = i then di else di +. pair_change dist pairs j p q

(* Exchange the contents of physical p and q (either may be empty). *)
let move_pairs pairs p q =
  let i = pairs.host.(p) and j = pairs.host.(q) in
  let follow k =
    pairs.a.(k) <- moved p q pairs.a.(k);
    pairs.b.(k) <- moved p q pairs.b.(k)
  in
  if i >= 0 then follow i;
  if j >= 0 && j <> i then follow j;
  pairs.host.(p) <- j;
  pairs.host.(q) <- i

let emit_swap st p q =
  st.out <- Circuit.append st.out (Gate.Swap (p, q));
  let lp = st.p2l.(p) and lq = st.p2l.(q) in
  st.p2l.(p) <- lq;
  st.p2l.(q) <- lp;
  if lp <> -1 then st.l2p.(lp) <- q;
  if lq <> -1 then st.l2p.(lq) <- p;
  move_pairs st.pend p q;
  move_pairs st.look p q;
  st.swaps <- st.swaps + 1;
  Metrics_registry.incr "router.swaps_inserted"

let emit_gate st g = st.out <- Circuit.append st.out (Gate.map_qubits (phys st) g)

(* Emit the pending gates whose hosts are now coupled, in pair order,
   and close the others up, order kept. *)
let flush st =
  let pend = st.pend in
  let kept = ref 0 in
  for i = 0 to pend.n - 1 do
    let pa = pend.a.(i) and pb = pend.b.(i) and g = pend.gate.(i) in
    if coupled st pa pb then begin
      pend.host.(pa) <- -1;
      pend.host.(pb) <- -1;
      emit_gate st g
    end
    else begin
      let k = !kept in
      pend.a.(k) <- pa;
      pend.b.(k) <- pb;
      pend.gate.(k) <- g;
      pend.host.(pa) <- k;
      pend.host.(pb) <- k;
      kept := k + 1
    end
  done;
  pend.n <- !kept

(* One step of pending pair i along a hop-shortest path: strictly
   reduces that pair's hop distance, guaranteeing progress when no
   globally improving swap exists. *)
let walk_pair st i =
  let pa = st.pend.a.(i) and pb = st.pend.b.(i) in
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
            st.device.Device.name))

(* The walk step of the closest pending pair (the first, on a tie). *)
let walk_step st =
  let pend = st.pend in
  let closest = ref 0 in
  for i = 1 to pend.n - 1 do
    let c = !closest in
    if
      Float_matrix.get st.dist pend.a.(i) pend.b.(i)
      < Float_matrix.get st.dist pend.a.(c) pend.b.(c)
    then closest := i
  done;
  walk_pair st !closest

(* The best SWAP for the pending pairs, as an index into the coupling
   edges, or -1 when none strictly decreases their summed distance.
   Candidates are the coupling edges touching a pending pair's host,
   taken in edge order; among the improving ones the lowest primary +
   lookahead-weighted score wins, exact ties broken by seeded coin
   flips.

   Both sums are added once, in pair order, and a candidate scores as
   the sum plus what it changes.  On hop distances that is exactly the
   pair-order sum after the SWAP (small integers add exactly).  On
   weighted distances the two can differ in the last bits, by at most
   [slack] (a bound on the rounding of sums of [n] non-negative terms,
   with room to spare); a comparison whose margin lies within it of a
   1e-12 window is redone on pair-order sums, so every decision, and
   every coin flip, is the one pair-order sums give.  Allocates
   nothing per candidate. *)
let best_swap config st =
  let dist = st.dist and pend = st.pend and look = st.look in
  let w = config.lookahead_weight in
  let current = summed dist pend (-1) (-1) and ahead = summed dist look (-1) (-1) in
  let threshold = current -. 1e-12 in
  let ulp_primary, ulp_score =
    if st.integral then (0.0, 0.0)
    else
      ( float_of_int (pend.n + 4) *. epsilon_float,
        float_of_int (pend.n + look.n + 8) *. epsilon_float )
  in
  let exact_score p q = summed dist pend p q +. (w *. summed dist look p q) in
  let best = ref Float.infinity and best_slack = ref 0.0 and best_e = ref (-1) in
  let scored = ref 0 in
  for e = 0 to Array.length st.eu - 1 do
    let p = st.eu.(e) and q = st.ev.(e) in
    if pend.host.(p) >= 0 || pend.host.(q) >= 0 then begin
      let primary = current +. change dist pend p q in
      let improving =
        if Float.abs (primary -. threshold) <= ulp_primary *. (current +. primary)
        then summed dist pend p q < threshold
        else primary < threshold
      in
      if improving then begin
        incr scored;
        let after = ahead +. change dist look p q in
        let score = ref (primary +. (w *. after))
        and slack = ref (ulp_score *. (current +. primary +. (Float.abs w *. (ahead +. after)))) in
        if
          !best_e >= 0
          && Float.abs (Float.abs (!score -. !best) -. 1e-12) <= !slack +. !best_slack
        then begin
          best := exact_score st.eu.(!best_e) st.ev.(!best_e);
          best_slack := 0.0;
          score := exact_score p q;
          slack := 0.0
        end;
        if
          !best_e < 0
          || !score < !best -. 1e-12
          || (Float.abs (!score -. !best) <= 1e-12 && Rng.bool (Lazy.force st.rng))
        then begin
          best := !score;
          best_slack := !slack;
          best_e := e
        end
      end
    end
  done;
  Metrics_registry.incr "router.lookahead_candidates_scored" ~by:!scored;
  !best_e

(* Process one layer: emit every gate as soon as its qubits are coupled,
   choosing swaps that strictly decrease the summed distance of the
   still-pending two-qubit gates (next-layer pairs as a weighted
   tie-break).  Gates of a layer act on disjoint qubits, so emission
   order within the layer is irrelevant to semantics, and the ASAP
   re-layering of the result recovers the parallelism. *)
let process_layer config st layer next =
  if Qaoa_obs.Config.enabled () then
    Metrics_registry.observe "router.layer_size"
      (float_of_int (List.length layer));
  (* 1-qubit gates (and measures/barriers) can go out immediately. *)
  List.iter (fun g -> if not (add_gate st st.pend g) then emit_gate st g) layer;
  for i = 0 to st.pend.n - 1 do
    check_pair_routable st i
  done;
  List.iter (fun g -> ignore (add_gate st st.look g : bool)) next;
  flush st;
  (* Safety budget: the greedy loop is strictly decreasing in practice,
     but a pathological interleaving of improving swaps (weighted-sum
     criterion) and walk steps (hop criterion) could in principle cycle.
     Past the budget, pending gates are routed one at a time by direct
     walks, which always terminates. *)
  let n = Device.num_qubits st.device in
  let budget = ref (8 * n * (1 + st.pend.n)) in
  while st.pend.n > 0 && !budget > 0 do
    decr budget;
    Qaoa_obs.Deadline.check config.deadline;
    let e = best_swap config st in
    if e >= 0 then emit_swap st st.eu.(e) st.ev.(e)
    else begin
      Metrics_registry.incr "router.walk_steps";
      walk_step st
    end;
    flush st
  done;
  for i = 0 to st.pend.n - 1 do
    while not (coupled st st.pend.a.(i) st.pend.b.(i)) do
      Qaoa_obs.Deadline.check config.deadline;
      walk_pair st i
    done;
    emit_gate st st.pend.gate.(i)
  done;
  clear st.pend;
  clear st.look

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
  let hops = Profile.hop_distances device in
  let dist =
    if config.reliability_aware && Option.is_some device.Device.calibration
    then Profile.weighted_distances device
    else hops
  in
  let eu, ev = Profile.coupling_edge_ends device in
  let n = Device.num_qubits device in
  let l2p = Mapping.l2p_array initial in
  let p2l = Array.make n (-1) in
  Array.iteri (fun l p -> p2l.(p) <- l) l2p;
  let st =
    {
      device;
      dist;
      hops;
      integral = dist == hops;
      eu;
      ev;
      l2p;
      p2l;
      pend = pairs_for n;
      look = pairs_for n;
      rng = lazy (Rng.create seed);
      out = Circuit.create n;
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
      let next = match rest with next :: _ -> next | [] -> [] in
      process_layer config st (strip_measures layer) next;
      process rest
  in
  process layers;
  List.iter
    (fun q -> emit_gate st (Gate.Measure q))
    (List.rev !deferred_measures);
  {
    circuit = st.out;
    final_mapping = Mapping.of_array ~num_physical:n st.l2p;
    swap_count = st.swaps;
  }

let route ?config ~device ~initial circuit =
  route_layers ?config ~device ~initial
    ~num_logical:(Circuit.num_qubits circuit)
    (Layering.layers circuit)
