(** IC - Incremental Compilation (paper Sec. IV.C, Fig. 5) and its
    variation-aware form VIC (Sec. IV.D, Fig. 6).

    Instead of fixing all CPHASE layers up front (IP), IC forms one layer
    at a time: the remaining CPHASE operations are sorted by the current
    physical distance between their control and target qubits (ascending,
    random tie-break), packed greedily into a single layer, and that
    partial circuit is compiled by the backend.  The SWAP insertion of
    each partial compilation updates the logical-to-physical mapping, so
    gates whose qubits drifted together get priority in the next layer.
    The compiled partial circuits are stitched at the end.

    With [variation_aware = true] (VIC) the distances come from the
    reliability-weighted Floyd-Warshall matrix (edge weight = 1 / CPHASE
    success rate), which prioritizes operations executable on reliable
    couplings and defers the others until the mapping drifts toward
    better paths. *)

type config = {
  packing_limit : int option;
      (** Max CPHASE gates per formed layer (Sec. V.H); None = pack to the
          fullest. *)
  variation_aware : bool;  (** false = IC, true = VIC *)
  router : Qaoa_backend.Router.config;
}

val default_config : config
(** Unlimited packing, variation-unaware, default router. *)

val compile :
  ?config:config ->
  ?measure:bool ->
  Qaoa_util.Rng.t ->
  Qaoa_hardware.Device.t ->
  initial:Qaoa_backend.Mapping.t ->
  Problem.t ->
  Ansatz.params ->
  Qaoa_backend.Router.result
(** Compile the full p-level ansatz incrementally: a Hadamard wall at
    the initial mapping, then per level the incrementally formed CPHASE
    layers followed by the mixer RX wall (each applied at the mapping in
    force when it is emitted), and finally measurements ([measure]
    defaults to true).

    @raise Invalid_argument if [variation_aware] is set but the device
    has no calibration data. *)

val form_layer :
  ?packing_limit:int ->
  Qaoa_util.Rng.t ->
  dist:Qaoa_util.Float_matrix.t ->
  phys:(int -> int) ->
  (int * int) list ->
  (int * int) list * (int * int) list
(** One greedy layer formation step: sort the remaining pairs by current
    physical distance and first-fit them into a single layer of qubit
    bins.  Returns (layer, remaining), both in sorted order.  Exposed
    for tests and for the packing-density experiment.

    Ties are random: the pairs are shuffled ({!Qaoa_util.Rng.shuffle},
    the draws of [shuffle_list]), then stably sorted by distance, so
    equal distances keep the shuffled order.  The sort counts the pairs
    into buckets by the integer part of their distance (distances from
    the matrix size up, infinity included, share the last bucket), then
    insertion-sorts the result, moving a pair only past strictly greater
    distances: exactly [List.stable_sort]'s order for any distances, in
    O(pairs) when each bucket holds one distance, as hop distances
    always do.  Used qubits are marked in a bool array. *)
