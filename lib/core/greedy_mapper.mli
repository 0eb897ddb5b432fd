(** GreedyV and GreedyE initial-mapping baselines (Murali et al.,
    ASPLOS'19; paper Sec. III "Initial Mapping"), and the placement loop
    GreedyV, QAIM ({!Qaim}) and VQA ({!Vqa}) share.

    - {b GreedyV} places program qubits heaviest-first (most two-qubit
      operations): each on the free physical qubit minimizing the
      cumulative distance to its already-placed logical neighbors, or of
      maximum degree when none is placed yet.
    - {b GreedyE} places program CNOT pairs heaviest-edge-first (most
      operations between the two qubits).  In QAOA circuits every pair
      interacts at most once per level, so all edges tie - the paper's
      motivation for why GreedyE suits these circuits poorly (Sec. III,
      "Motivating Factors"); it is provided as a baseline regardless. *)

val argmax_random : ?rng:Qaoa_util.Rng.t -> ('a -> float) -> 'a list -> 'a
(** An element of the list maximizing the score.  With [rng], ties are
    broken uniformly at random (reservoir sampling: one [Rng.int] per
    tie, in list order); without, the first maximum wins.
    @raise Invalid_argument on []. *)

val free_qubits : bool array -> int list
(** The indices holding [true], ascending. *)

val place_heaviest_first :
  ?random_ties:bool ->
  Qaoa_util.Rng.t ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  candidates:(free:bool array -> int list -> int list) ->
  score:(int list -> (int -> float) -> int -> float) ->
  Qaoa_backend.Mapping.t
(** The one placement loop.  Logical qubits are taken heaviest first (a
    shuffle, then a stable sort by CPHASE count); each goes to the
    {!argmax_random} of [score locs distance] over
    [candidates ~free locs], where [free] marks the untaken physical
    qubits, [locs] lists where the qubit's placed logical neighbors sit
    (in neighbor order) and [distance p] is the cumulative hop distance
    from [p] to them.  Ties draw from the generator unless [random_ties]
    is false (default true), where the first maximum wins. *)

val greedy_v :
  Qaoa_util.Rng.t -> Qaoa_hardware.Device.t -> Problem.t -> Qaoa_backend.Mapping.t

val greedy_e :
  Qaoa_util.Rng.t -> Qaoa_hardware.Device.t -> Problem.t -> Qaoa_backend.Mapping.t
