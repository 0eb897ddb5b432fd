module Circuit = Qaoa_circuit.Circuit
module Gate = Qaoa_circuit.Gate
module Layering = Qaoa_circuit.Layering
module Decompose = Qaoa_circuit.Decompose
module Rng = Qaoa_util.Rng

type t = {
  t1 : float array;
  t2 : float array;
  gate_duration_1q : float;
  gate_duration_2q : float;
}

let create ?(gate_duration_1q = 50e-9) ?(gate_duration_2q = 300e-9) ~t1 ~t2 ()
    =
  if Array.length t1 <> Array.length t2 then
    invalid_arg "Coherence.create: T1/T2 length mismatch";
  Array.iter
    (fun x -> if x <= 0.0 then invalid_arg "Coherence.create: non-positive time")
    t1;
  { t1; t2; gate_duration_1q; gate_duration_2q }

let uniform ?gate_duration_1q ?gate_duration_2q ~num_qubits ~t1 ~t2 () =
  create ?gate_duration_1q ?gate_duration_2q
    ~t1:(Array.make num_qubits t1)
    ~t2:(Array.make num_qubits t2)
    ()

let random rng ?(mu_t1 = 50e-6) ?(sigma_t1 = 15e-6) ~num_qubits () =
  let t1 =
    Array.init num_qubits (fun _ ->
        Rng.normal_clamped rng ~mu:mu_t1 ~sigma:sigma_t1 ~lo:(mu_t1 /. 10.0)
          ~hi:(mu_t1 *. 3.0))
  in
  let t2 =
    Array.map
      (fun t1q ->
        let frac = 0.5 +. Rng.float rng 0.5 in
        Float.min (1.5 *. t1q) (2.0 *. t1q *. frac))
      t1
  in
  create ~t1 ~t2 ()

type schedule = Asap | Alap

let layers_of ?(schedule = Asap) circuit =
  let d = Decompose.circuit circuit in
  ( d,
    match schedule with
    | Asap -> Layering.layers d
    | Alap -> Layering.alap_layers d )

let durations_of t layers =
  List.map
    (fun layer ->
      let has_2q = List.exists Gate.is_two_qubit layer in
      if has_2q then t.gate_duration_2q else t.gate_duration_1q)
    layers

let circuit_duration t circuit =
  List.fold_left ( +. ) 0.0 (durations_of t (snd (layers_of circuit)))

let window_of d layers =
  let window = Array.make (Circuit.num_qubits d) None in
  List.iteri
    (fun i layer ->
      List.iter
        (fun g ->
          List.iter
            (fun q ->
              window.(q) <-
                (match window.(q) with
                | None -> Some (i, i)
                | Some (first, _) -> Some (first, i)))
            (Gate.qubits g))
        layer)
    layers;
  window

let active_window ?schedule circuit =
  let d, layers = layers_of ?schedule circuit in
  window_of d layers

let decoherence_factor ?schedule t circuit =
  if Array.length t.t1 < Circuit.num_qubits circuit then
    invalid_arg "Coherence.decoherence_factor: model smaller than circuit";
  let d, layers = layers_of ?schedule circuit in
  let durations = Array.of_list (durations_of t layers) in
  let window = window_of d layers in
  let prefix = Array.make (Array.length durations + 1) 0.0 in
  Array.iteri (fun i d -> prefix.(i + 1) <- prefix.(i) +. d) durations;
  let log_factor = ref 0.0 in
  Array.iteri
    (fun q w ->
      match w with
      | None -> ()
      | Some (first, last) ->
        let active = prefix.(last + 1) -. prefix.(first) in
        let coherence_time = Float.min t.t1.(q) t.t2.(q) in
        log_factor := !log_factor -. (active /. coherence_time))
    window;
  exp !log_factor

let estimated_success_probability t cal circuit =
  Success.of_circuit cal circuit *. decoherence_factor t circuit
