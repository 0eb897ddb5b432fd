(** Reverse-traversal initial-mapping refinement (Li, Ding, Xie -
    ASPLOS'19; paper Sec. III "Initial Mapping").

    Quantum circuits are reversible, so a mapping that ends a compilation
    of the reversed circuit is a good mapping to {i start} the forward
    circuit.  Starting from any initial mapping, the refinement
    alternately routes the forward and the reversed circuit, feeding each
    pass's final mapping into the next as its initial mapping.  The
    ASPLOS paper found ~3 traversals a good cost/quality point, at the
    price of the extra compilations - the trade-off our ablation bench
    quantifies. *)

val refine :
  ?iterations:int ->
  device:Qaoa_hardware.Device.t ->
  initial:Qaoa_backend.Mapping.t ->
  Qaoa_circuit.Circuit.t ->
  Qaoa_backend.Mapping.t
(** [refine ~device ~initial circuit] runs [iterations] (default 3)
    reverse-traversal rounds over the unitary part of [circuit]
    (measurements are ignored for refinement) and returns the improved
    initial mapping. *)

val reverse_circuit : Qaoa_circuit.Circuit.t -> Qaoa_circuit.Circuit.t
(** The circuit with its unitary gates in reverse order (angles are kept
    as-is: SWAP insertion only cares about which qubit pairs interact,
    not the inverse angles).  Measurements and barriers are dropped. *)
