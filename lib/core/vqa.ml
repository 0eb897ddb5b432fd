module Graph = Qaoa_graph.Graph
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration

(* Each coupling's success rate and each qubit's summed incident rate; a
   coupling the snapshot does not record is charged
   [Calibration.unrecorded_error]. *)
let success_rates device =
  let cal = Device.calibration_exn device in
  let unrecorded = Calibration.unrecorded_error cal in
  let link u v = 1.0 -. Calibration.cnot_error_or ~default:unrecorded cal u v in
  let incident q =
    List.fold_left
      (fun acc v -> acc +. link q v)
      0.0
      (Graph.neighbors device.Device.coupling q)
  in
  (link, Array.init (Device.num_qubits device) incident)

let grow_region (link, incident) device ~k =
  let n = Device.num_qubits device in
  if k > n then invalid_arg "Vqa.select_region: k exceeds device size";
  (* Each step adds the outside qubit with the largest rate into the
     region: ties go to the larger incident rate, then the lower index,
     so the first step takes the seed of largest incident rate. *)
  let by_incident =
    List.stable_sort
      (fun a b -> compare incident.(b) incident.(a))
      (List.init n Fun.id)
  in
  let inside = Array.make n false in
  let gain q =
    List.fold_left
      (fun acc v -> if inside.(v) then acc +. link q v else acc)
      0.0
      (Graph.neighbors device.Device.coupling q)
  in
  for _ = 1 to k do
    let outside = List.filter (fun q -> not inside.(q)) by_incident in
    inside.(Greedy_mapper.argmax_random gain outside) <- true
  done;
  List.filter (Array.get inside) (List.init n Fun.id)

let select_region device ~k = grow_region (success_rates device) device ~k

let initial_mapping rng device problem =
  let ((_, incident) as rates) = success_rates device in
  let region = grow_region rates device ~k:problem.Problem.num_vars in
  Greedy_mapper.place_heaviest_first ~random_ties:false rng device problem
    ~candidates:(fun ~free _ -> List.filter (Array.get free) region)
    ~score:(fun locs distance q ->
      if locs = [] then incident.(q) else -.distance q)
