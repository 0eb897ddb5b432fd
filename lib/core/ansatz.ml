module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit

type params = { gammas : float array; betas : float array }

let params_p1 ~gamma ~beta = { gammas = [| gamma |]; betas = [| beta |] }

let levels p =
  if Array.length p.gammas <> Array.length p.betas then
    invalid_arg "Ansatz.levels: gamma/beta length mismatch";
  Array.length p.gammas

let quad_coeff problem =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (i, j, c) -> Hashtbl.replace tbl (i, j) c)
    problem.Problem.quadratic;
  fun (i, j) ->
    match Hashtbl.find_opt tbl (min i j, max i j) with
    | Some c -> c
    | None -> invalid_arg "Ansatz: pair is not a quadratic term"

let check_order problem order =
  let norm l = List.sort compare (List.map (fun (i, j) -> (min i j, max i j)) l) in
  if norm order <> Problem.cphase_pairs problem then
    invalid_arg "Ansatz: order is not a permutation of the problem's pairs"

(* exp(-i g * c * Z Z) = Cphase(theta) with theta = 2 g c.  The
   coefficient table is built once, when applied to a problem and g. *)
let cphase_gate problem ~gamma =
  let coeff = quad_coeff problem in
  fun (i, j) -> Gate.Cphase (i, j, 2.0 *. gamma *. coeff (i, j))

(* exp(-i g * h * Z) = RZ(2 g h) *)
let linear_gates problem ~gamma =
  List.map
    (fun (i, h) -> Gate.Rz (i, 2.0 *. gamma *. h))
    problem.Problem.linear

let cost_layer_gates ?order problem ~gamma =
  let pairs =
    match order with
    | None -> Problem.cphase_pairs problem
    | Some o ->
      check_order problem o;
      o
  in
  List.map (cphase_gate problem ~gamma) pairs @ linear_gates problem ~gamma

let mixer_gates problem ~beta =
  List.init problem.Problem.num_vars (fun q -> Gate.Rx (q, 2.0 *. beta))

let circuit ?(measure = true) ?orders problem params =
  let p = levels params in
  let orders =
    match orders with
    | None -> List.init p (fun _ -> None)
    | Some os ->
      if List.length os <> p then
        invalid_arg "Ansatz.circuit: one order per level expected";
      List.map Option.some os
  in
  let c = ref (Circuit.create problem.Problem.num_vars) in
  let add gs = c := Circuit.append_list !c gs in
  add (List.init problem.Problem.num_vars (fun q -> Gate.H q));
  List.iteri
    (fun l order ->
      add (cost_layer_gates ?order problem ~gamma:params.gammas.(l));
      add (mixer_gates problem ~beta:params.betas.(l)))
    orders;
  if measure then c := Circuit.measure_all !c;
  !c

let state problem params =
  Qaoa_sim.Statevector.of_circuit (circuit ~measure:false problem params)

let expectation problem params =
  Qaoa_sim.Statevector.expectation_diag (state problem params)
    (Problem.cost problem)

let approximation_ratio_of_samples problem samples =
  let _, best = Problem.brute_force_best problem in
  let mean =
    Qaoa_util.Stats.mean_array
      (Array.map (fun bits -> Problem.cost problem bits) samples)
  in
  mean /. best
