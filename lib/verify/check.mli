(** Translation validation of compiled circuits.

    The compilation pipeline's contract (paper Sec. III-IV) is that a
    routed circuit is {e equivalent} to its logical source: every
    methodology may reorder commuting CPHASEs, insert SWAPs and relocate
    qubits, but the state it prepares - read through the final
    logical-to-physical mapping - must be the logical ansatz state.  This
    module checks that contract per compile, in two stages:

    - {b structural}: replay the compiled circuit against the device,
      evolving the logical-to-physical mapping through every SWAP.  Every
      two-qubit gate must act on a coupled physical pair, every non-SWAP
      gate on allocated wires; the replayed mapping must land on the
      recorded final mapping; SWAP counts must agree; measured wires must
      be untouched afterwards and consistent with final-mapping readout;
      and the multiset of logical pre-images of the emitted gates must
      equal the logical circuit's gates (so a wrong-pair CNOT is named
      even when the wrong pair happens to be coupled).
    - {b semantic}: one of two oracles, chosen by {!options.oracle}.
      Registers within {!options.max_semantic_qubits} re-simulate the
      logical pre-images in emission order on a {b statevector} and
      compare against the logical circuit's state up to global phase,
      checkpointing at every clean logical-layer boundary so a divergence
      is attributed to the first offending layer.  Larger registers fall
      back to the {b phase-polynomial} canonicalizer
      ({!Qaoa_analysis.Phase_poly}): exact on the linear gate fragment at
      any qubit count, in polynomial time, so 20-qubit compiles still get
      a definite semantic verdict instead of a skip.

    Structural checks run on circuits of any size.  When the semantic
    stage cannot run at all - disabled, structural issues present, or the
    phase-polynomial fallback finds misaligned non-linear skeletons - the
    report says exactly why in {!Skipped}. *)

type issue =
  | Uncoupled_pair of { gate_index : int; gate : Qaoa_circuit.Gate.t }
      (** two-qubit gate on physical qubits the device does not couple *)
  | Unallocated_operand of {
      gate_index : int;
      gate : Qaoa_circuit.Gate.t;
      physical : int;
    }
      (** non-SWAP gate touching a wire hosting no logical qubit *)
  | Unexpected_gate of {
      gate_index : int;
      gate : Qaoa_circuit.Gate.t;
      logical : Qaoa_circuit.Gate.t;
    }
      (** the gate's logical pre-image is not (or no longer) owed by the
          logical circuit - e.g. a CNOT on a coupled but wrong pair *)
  | Missing_gates of { gates : Qaoa_circuit.Gate.t list }
      (** logical gates never emitted by the compiled circuit *)
  | Final_mapping_mismatch of {
      logical : int;
      expected : int;  (** recorded final physical location *)
      actual : int;  (** location reached by replaying the SWAPs *)
    }
  | Swap_count_mismatch of { recorded : int; counted : int }
  | Measurement_missing of { logical : int }
      (** the logical circuit measures this qubit; the compiled one never
          does *)
  | Measured_wire_disturbed of {
      gate_index : int;
      gate : Qaoa_circuit.Gate.t;
      physical : int;
    }
      (** a gate acts on a wire after that wire was measured, so the
          recorded outcome would not reflect the final state *)
  | Readout_mismatch of { logical : int; measured_at : int; final : int }
      (** the qubit was measured on a wire other than its final-mapping
          location, so {!final}-based outcome translation would read the
          wrong bit *)
  | State_mismatch of {
      layer : int option;
          (** first divergent logical layer, when a clean layer boundary
              pinpoints it; [None] when only the final state differs *)
      gate_index : int option;
          (** compiled gate index completing that boundary *)
      distance : float;  (** phase-aligned L2 distance *)
    }
  | Phase_poly_mismatch of { segment : int; detail : string }
      (** the phase-polynomial oracle found the first divergent linear
          segment; [detail] is a human-readable witness (a differing
          output parity or phase term) *)

type semantic_method = Statevector | Phase_polynomial

type semantic_status =
  | Checked of { num_qubits : int; method_ : semantic_method }
  | Skipped of string  (** reason: disabled, structural issues, qubit
                           count past the statevector limit with the
                           fallback disabled, or an inconclusive
                           phase-polynomial comparison *)

type report = { issues : issue list; semantic : semantic_status }

val default_max_semantic_qubits : int
(** 12 - a 4096-amplitude statevector, cheap enough to run on every
    compile of the evaluation's problem sizes. *)

type oracle =
  | Auto  (** statevector within the qubit limit, phase-polynomial past it *)
  | Statevector_only  (** past the limit, skip (the pre-PR behaviour) *)
  | Phase_poly_only  (** always use the canonicalizer, any size *)

type options = {
  max_semantic_qubits : int;  (** statevector cutoff *)
  oracle : oracle;
}
(** Both oracles compare within 1e-6: the phase-aligned state distance
    (statevector) and each term's angle (phase polynomial). *)

val default_options : unit -> options
(** [{ max_semantic_qubits; oracle = Auto }], where [max_semantic_qubits] is
    {!default_max_semantic_qubits} unless the [QAOA_MAX_SEMANTIC_QUBITS]
    environment variable holds a non-negative integer (malformed values
    are ignored).  Read afresh on every call. *)

val issue_to_string : issue -> string
val report_to_string : report -> string

val ok : report -> bool
(** No issues found (a skipped semantic stage does not fail a report). *)

val validate :
  ?options:options ->
  device:Qaoa_hardware.Device.t ->
  initial:Qaoa_backend.Mapping.t ->
  final:Qaoa_backend.Mapping.t ->
  ?swap_count:int ->
  logical:Qaoa_circuit.Circuit.t ->
  Qaoa_circuit.Circuit.t ->
  report
(** [validate ~device ~initial ~final ~swap_count ~logical compiled]
    checks that [compiled] (on physical qubits, CPHASE/SWAP not yet
    decomposed) faithfully implements [logical] (on logical qubits) under
    the recorded mappings.  [options] defaults to {!default_options}[()].
    The semantic stage runs only when the structural stage is clean -
    structural issues make gate pre-images unreliable. *)

exception Verification_failed of report

val validate_exn :
  ?options:options ->
  device:Qaoa_hardware.Device.t ->
  initial:Qaoa_backend.Mapping.t ->
  final:Qaoa_backend.Mapping.t ->
  ?swap_count:int ->
  logical:Qaoa_circuit.Circuit.t ->
  Qaoa_circuit.Circuit.t ->
  unit
(** @raise Verification_failed when {!validate} finds any issue. *)
