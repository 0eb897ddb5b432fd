let gate = function
  | Gate.Cphase (c, t, theta) ->
    [ Gate.Cnot (c, t); Gate.Rz (t, theta); Gate.Cnot (c, t) ]
  | Gate.Swap (a, b) -> [ Gate.Cnot (a, b); Gate.Cnot (b, a); Gate.Cnot (a, b) ]
  | g -> [ g ]

let circuit c =
  Circuit.of_gates (Circuit.num_qubits c)
    (List.concat_map gate (Circuit.gates c))

let is_basis = function
  | Gate.Cphase _ | Gate.Swap _ -> false
  | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.Rx _ | Gate.Ry _
  | Gate.Rz _ | Gate.Phase _ | Gate.Cnot _ | Gate.Barrier | Gate.Measure _ ->
    true
