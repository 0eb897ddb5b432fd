module Graph = Qaoa_graph.Graph
module Paths = Qaoa_graph.Paths

let connectivity_strength ?(order = 2) device q =
  let dist = Paths.bfs_distances device.Device.coupling q in
  Array.fold_left
    (fun acc d -> if d >= 1 && d <= order then acc + 1 else acc)
    0 dist

let connectivity_profile ?order device =
  Array.init (Device.num_qubits device) (connectivity_strength ?order device)

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
  ignore (hop_distances device : Qaoa_util.Float_matrix.t);
  match device.Device.calibration with
  | Some _ -> ignore (weighted_distances device : Qaoa_util.Float_matrix.t)
  | None -> ()
