type scenario = { label : string; faults : Fault.t list }

let scenario ?label faults =
  { label = Option.value ~default:(Fault.describe faults) label; faults }

let baseline = scenario []

let dead_qubit_sweep =
  List.map (fun k -> scenario [ Fault.Random_dead_qubits k ]) [ 1; 2; 3 ]

let severed_coupling_sweep =
  List.map (fun k -> scenario [ Fault.Random_severed_couplings k ]) [ 1; 2; 4 ]

let drift_sweep =
  List.map
    (fun sigma -> scenario [ Fault.Calibration_drift { sigma } ])
    [ 0.1; 0.25; 0.5 ]

let drop_sweep =
  List.map
    (fun fraction -> scenario [ Fault.Dropped_calibration { fraction } ])
    [ 0.1; 0.2; 0.5 ]

let default =
  (baseline :: dead_qubit_sweep)
  @ severed_coupling_sweep @ drift_sweep @ drop_sweep
  @ [
      scenario
        [ Fault.Random_dead_qubits 2; Fault.Dropped_calibration { fraction = 0.2 } ];
    ]
