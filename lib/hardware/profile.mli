(** Hardware profiling used by the mapping heuristics.

    - {b Connectivity strength} (paper Sec. IV.A, Fig. 3(b)): for a
      physical qubit, the number of unique qubits within hop distance 2
      (first plus second neighbors).  For larger architectures the paper
      suggests including higher-order neighbors; [order] generalizes this.
    - {b Distance matrices}: hop distances for QAIM/IC; reliability-
      weighted distances for VIC (edge weight = 1 / CPHASE success rate,
      Fig. 6(d), a coupling with no recorded rate charged
      {!Calibration.unrecorded_error}), both via Floyd-Warshall computed
      once per device. *)

val connectivity_strength : ?order:int -> Device.t -> int -> int
(** Unique qubits within hop distance [order] (default 2) of the given
    qubit, excluding itself; read off {!hop_distances}. *)

val connectivity_profile : ?order:int -> Device.t -> int array
(** [connectivity_strength] of every qubit. *)

val coupling_edges : Device.t -> (int * int) list
(** {!Device.coupling_edges} (sorted [(u, v)] with [u < v]), memoized
    per coupling graph like the distance matrices. *)

val coupling_edge_ends : Device.t -> int array * int array
(** The same edges as two arrays of ends, [u.(e) < v.(e)], from the
    same memo - the router's SWAP candidates, walked in this order on
    every SWAP decision.  Shared; never mutate them. *)

val hop_distances : Device.t -> Qaoa_util.Float_matrix.t
(** All-pairs hop distances of the coupling graph. *)

val weighted_distances : Device.t -> Qaoa_util.Float_matrix.t
(** All-pairs shortest paths with edge weights 1 / CPHASE-success
    (Fig. 6(d)).  Couplings the calibration does not cover are charged
    {!Calibration.unrecorded_error}, computed once per snapshot, so
    partial calibrations degrade routing quality instead of raising.
    @raise Invalid_argument if the device has no calibration at all. *)

val distance_matrix : variation_aware:bool -> Device.t -> Qaoa_util.Float_matrix.t
(** [hop_distances] or [weighted_distances] according to the flag - the
    single switch distinguishing IC from VIC. *)

val precompute : Device.t -> unit
(** Warm the per-device distance caches: {!hop_distances} always, and
    {!weighted_distances} when the device carries a calibration.  The
    caches are mutex-guarded and the memoized matrices are only ever
    read after construction, so a pool of worker domains can share one
    device value read-only; call this from the coordinating domain
    before spawning workers so none of them pays (or serializes on) the
    Floyd-Warshall run. *)
