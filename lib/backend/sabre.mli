(** SABRE-style SWAP-insertion router (Li, Ding, Xie - ASPLOS'19), the
    heuristic family the paper cites for initial-mapping reverse
    traversal (Sec. III).

    Differences from the layer-partitioned {!Router}:
    - works on a {b front} of gates whose per-qubit predecessors have all
      executed, rather than on pre-formed layers;
    - scores candidate SWAPs with the front's summed distance plus a
      weighted {b extended set} (a lookahead window of upcoming two-qubit
      gates), normalized by set sizes;
    - applies a {b decay} penalty to recently swapped qubits to spread
      movement across the machine and avoid ping-ponging.

    Provided as an alternative backend: the router-shootout ablation runs
    both engines on identical workloads.  Results are interchangeable
    with {!Router.result}.  The heuristic runs with fixed constants - a
    20-gate lookahead at weight 0.5, a 0.001 decay bump reset every 5
    SWAPs, a seed-17 tie-break stream - and takes no deadline. *)

val route :
  device:Qaoa_hardware.Device.t ->
  initial:Mapping.t ->
  Qaoa_circuit.Circuit.t ->
  Router.result
(** Same contract as {!Router.route}: hardware-compliant output circuit
    on physical qubits, final mapping tracked, semantics preserved up to
    the output permutation (property-tested against the statevector
    simulator).
    @raise Router.Unroutable when a blocked gate's operands sit in
    disconnected coupling components. *)
