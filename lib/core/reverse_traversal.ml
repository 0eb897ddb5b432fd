module Circuit = Qaoa_circuit.Circuit
module Gate = Qaoa_circuit.Gate
module Router = Qaoa_backend.Router

let reverse_circuit circuit =
  let unitary =
    List.filter Gate.is_unitary (Circuit.gates circuit)
  in
  Circuit.of_gates (Circuit.num_qubits circuit) (List.rev unitary)

let refine ?(iterations = 3) ~device ~initial circuit =
  let forward =
    Circuit.of_gates (Circuit.num_qubits circuit)
      (List.filter Gate.is_unitary (Circuit.gates circuit))
  in
  let backward = reverse_circuit circuit in
  let mapping = ref initial in
  for i = 1 to iterations do
    let dir = if i mod 2 = 1 then forward else backward in
    let r = Router.route ~device ~initial:!mapping dir in
    mapping := r.Router.final_mapping
  done;
  !mapping
