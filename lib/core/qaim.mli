(** QAIM - integrated Qubit Allocation and Initial Mapping
    (paper Sec. IV.A, Figs. 3(d,e)).

    QAIM fuses topology selection and initial placement into one pass
    guided by two profiles:

    - {b hardware profile}: each physical qubit's connectivity strength
      (unique qubits within two hops, {!Qaoa_hardware.Profile});
    - {b program profile}: CPHASE operations per logical qubit
      ({!Problem.ops_per_qubit}).

    Procedure: logical qubits are served in descending operation count.
    The first goes to the free physical qubit of highest connectivity
    strength.  Each later qubit, when some of its logical neighbors are
    already placed, goes to the free physical neighbor of those
    placements maximizing

      connectivity strength / cumulative distance to placed neighbors,

    falling back to the globally strongest free qubit when it has no
    placed neighbor; when their physical neighborhoods are exhausted,
    every free qubit is a candidate for the same metric.  Ties are
    broken uniformly at random, as in the paper's Example 1 (qubit-7 vs
    qubit-12).  The order, free set and tie-break are those of
    {!Greedy_mapper.place_heaviest_first}, the loop GreedyV and VQA use
    too; QAIM supplies the candidates and the metric. *)

type config = {
  strength_order : int;
      (** Neighbor order for connectivity strength (default 2; the paper
          suggests raising it for larger architectures). *)
}

val default_config : config

val initial_mapping :
  ?config:config ->
  Qaoa_util.Rng.t ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Qaoa_backend.Mapping.t
(** @raise Invalid_argument if the problem needs more qubits than the
    device offers. *)
