(** VQA - Variation-aware Qubit Allocation (Tannu & Qureshi, ASPLOS'19;
    paper Sec. III "Qubit Allocation").

    Where the connectivity-count heuristics pick the sub-graph with the
    most links, VQA picks the sub-graph maximizing the {i cumulative
    reliability} of its links: a well-connected region of weak couplings
    loses to a slightly sparser region of strong ones.  Procedure:

    1. grow a k-qubit region greedily from the seed qubit with the
       highest incident success-rate sum, at each step adding the
       outside qubit contributing the largest summed success rate on
       links into the region (ties to the larger incident sum, then the
       lower index);
    2. place program qubits into the region heaviest-first, each next
       to its already-placed logical neighbors, or on the free region
       qubit of largest incident sum when none is placed: GreedyV's loop
       ({!Greedy_mapper.place_heaviest_first}) restricted to the region,
       where the first maximum wins a tie and nothing is drawn.

    A coupling the calibration snapshot does not record is charged
    {!Qaoa_hardware.Calibration.unrecorded_error}, the rate VIC, lint
    rule QL008 and the resilience sweep charge it.

    Provided as a variation-aware {i allocation} baseline to contrast
    with QAIM's variation-unaware allocation and VIC's variation-aware
    {i scheduling}. *)

val select_region :
  Qaoa_hardware.Device.t -> k:int -> int list
(** The selected physical qubits (sorted; [] for [k = 0]).
    @raise Invalid_argument if the device has no calibration or [k]
    exceeds the qubit count. *)

val initial_mapping :
  Qaoa_util.Rng.t ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Qaoa_backend.Mapping.t
(** Allocation + placement as described above. *)
