module Paths = Qaoa_graph.Paths
module Float_matrix = Qaoa_util.Float_matrix

(* The mapping procedures look distances up on every decision; the paper
   prescribes computing the matrix once per device (Floyd-Warshall) and
   reading it from memory.  Memoize on the physical identity of the
   coupling graph (devices share it across copies), keeping a small LRU.

   The cache is shared across domains (the serving layer compiles on a
   worker pool), so every access holds a mutex.  Computing inside the
   lock is deliberate: concurrent first requests for the same device
   then share one Floyd-Warshall run instead of racing duplicates, and
   the matrices handed out are only ever read afterwards. *)
let memoize () =
  let cache = ref [] in
  let lock = Mutex.create () in
  fun key compute ->
    Mutex.lock lock;
    match List.assq_opt key !cache with
    | Some m ->
      Mutex.unlock lock;
      m
    | None -> (
      match compute () with
      | m ->
        let keep = List.filteri (fun i _ -> i < 15) !cache in
        cache := (key, m) :: keep;
        Mutex.unlock lock;
        m
      | exception e ->
        Mutex.unlock lock;
        raise e)

let hop_cache = memoize ()

let hop_distances device =
  hop_cache device.Device.coupling (fun () ->
      Paths.all_pairs_hops device.Device.coupling)

let edges_cache = memoize ()

(* The sorted edge list, and its two ends as arrays in the same order. *)
let edges device =
  edges_cache device.Device.coupling (fun () ->
      let l = Device.coupling_edges device in
      (l, (Array.of_list (List.map fst l), Array.of_list (List.map snd l))))

let coupling_edges device = fst (edges device)
let coupling_edge_ends device = snd (edges device)

(* Qubits at hop distance 1..order from q; unreachable ones sit at
   infinity. *)
let strength hops ~order q =
  let order = float_of_int order and within = ref 0 in
  for v = 0 to Float_matrix.size hops - 1 do
    let d = Float_matrix.get hops q v in
    if d >= 1.0 && d <= order then incr within
  done;
  !within

let connectivity_strength ?(order = 2) device q =
  strength (hop_distances device) ~order q

let connectivity_profile ?(order = 2) device =
  let hops = hop_distances device in
  Array.init (Device.num_qubits device) (strength hops ~order)

let weighted_cache = memoize ()

let weighted_distances device =
  let cal = Device.calibration_exn device in
  weighted_cache (Calibration.id cal) (fun () ->
      (* Couplings without a recorded rate (stale or partial calibration
         snapshots) score pessimistically, so the scorer steers away from
         uncalibrated couplings yet still routes over them when nothing
         better exists, instead of raising mid-route. *)
      let default = Calibration.unrecorded_error cal in
      Paths.all_pairs_weighted device.Device.coupling ~weight:(fun u v ->
          let e = Calibration.cnot_error_or ~default cal u v in
          let s = (1.0 -. e) *. (1.0 -. e) in
          1.0 /. Float.max s 1e-9))

let distance_matrix ~variation_aware device =
  if variation_aware then weighted_distances device else hop_distances device

let precompute device =
  ignore (hop_distances device : Float_matrix.t);
  match device.Device.calibration with
  | Some _ -> ignore (weighted_distances device : Float_matrix.t)
  | None -> ()
