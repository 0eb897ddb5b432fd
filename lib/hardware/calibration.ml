module Edge_map = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type t = {
  id : int;  (** unique per snapshot; lets consumers memoize derived data *)
  cnot_errors : float Edge_map.t;
  single_qubit_error : float;
  readout_error : float;
}

let key u v = (min u v, max u v)

let next_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let create ?(single_qubit_error = 1e-3) ?(readout_error = 0.0) pairs =
  let cnot_errors =
    List.fold_left
      (fun acc (u, v, e) ->
        if u = v then
          invalid_arg
            (Printf.sprintf "Calibration.create: self-coupling (%d, %d)" u v);
        let k = key u v in
        if Edge_map.mem k acc then
          invalid_arg
            (Printf.sprintf "Calibration.create: duplicate coupling (%d, %d)"
               (fst k) (snd k));
        Edge_map.add k e acc)
      Edge_map.empty pairs
  in
  { id = next_id (); cnot_errors; single_qubit_error; readout_error }

let id t = t.id

let uniform ?single_qubit_error ?readout_error ~cnot_error edges =
  create ?single_qubit_error ?readout_error
    (List.map (fun (u, v) -> (u, v, cnot_error)) edges)

let random rng ?single_qubit_error ?readout_error ?(mu = 1.0e-2)
    ?(sigma = 0.5e-2) edges =
  let draw () =
    Qaoa_util.Rng.normal_clamped rng ~mu ~sigma ~lo:1e-4 ~hi:0.5
  in
  create ?single_qubit_error ?readout_error
    (List.map (fun (u, v) -> (u, v, draw ())) edges)

let cnot_error t u v =
  match Edge_map.find_opt (key u v) t.cnot_errors with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf
         "Calibration.cnot_error: no rate recorded for coupling (%d, %d)" u v)

let cnot_error_opt t u v = Edge_map.find_opt (key u v) t.cnot_errors

let cnot_error_or ~default t u v =
  Option.value ~default (Edge_map.find_opt (key u v) t.cnot_errors)
let single_qubit_error t = t.single_qubit_error
let readout_error t = t.readout_error
let cnot_success t u v = 1.0 -. cnot_error t u v

let cphase_success t u v =
  let s = cnot_success t u v in
  s *. s

let edges t = List.map fst (Edge_map.bindings t.cnot_errors)

let entries t =
  List.map (fun ((u, v), e) -> (u, v, e)) (Edge_map.bindings t.cnot_errors)

(* Rebuilding through [create] gives the derived snapshot a fresh [id],
   so consumers memoizing on the id (e.g. Profile's weighted-distance
   cache) never serve stale data for a perturbed calibration. *)
let rebuild t pairs =
  create ~single_qubit_error:t.single_qubit_error
    ~readout_error:t.readout_error pairs

let filter_edges f t =
  rebuild t (List.filter (fun (u, v, e) -> f u v e) (entries t))

let map_errors f t =
  rebuild t (List.map (fun (u, v, e) -> (u, v, f u v e)) (entries t))

let unrecorded_error t =
  let worst =
    Edge_map.fold (fun _ e acc -> Float.max acc e) t.cnot_errors 0.0
  in
  if worst > 0.0 then worst else 0.5

let worst_edge t =
  match Edge_map.bindings t.cnot_errors with
  | [] -> invalid_arg "Calibration.worst_edge: no recorded couplings"
  | first :: rest ->
    List.fold_left
      (fun ((_, best_e) as best) ((_, e) as cand) ->
        if e > best_e then cand else best)
      first rest
