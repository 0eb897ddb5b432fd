module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Decompose = Qaoa_circuit.Decompose

let log_gate ?(include_readout = false) ?unrecorded cal g =
  match g with
  | Gate.Cnot (a, b) ->
    let e =
      match unrecorded with
      | None -> Calibration.cnot_error cal a b
      | Some default -> Calibration.cnot_error_or ~default cal a b
    in
    log (1.0 -. e)
  | Gate.Barrier -> 0.0
  | Gate.Measure _ ->
    if include_readout then log (1.0 -. Calibration.readout_error cal) else 0.0
  | Gate.Cphase _ | Gate.Swap _ -> invalid_arg "Success.log_gate: not a basis gate"
  | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.Rx _ | Gate.Ry _
  | Gate.Rz _ | Gate.Phase _ ->
    log (1.0 -. Calibration.single_qubit_error cal)

let of_circuit ?include_readout ?unrecorded cal circuit =
  exp
    (List.fold_left
       (fun acc g -> acc +. log_gate ?include_readout ?unrecorded cal g)
       0.0
       (Circuit.gates (Decompose.circuit circuit)))
