(** Classical baselines for Ising/MaxCut objectives.

    QAOA approximation ratios only mean something against classical
    effort (the paper's approximation-ratio discussion, Sec. II).  Three
    standard baselines over the same {!Problem.t} objective:

    - uniform random sampling (the gamma = beta = 0 QAOA limit);
    - greedy 1-flip local search from random starts;
    - simulated annealing with a geometric temperature schedule.

    All maximize {!Problem.cost} and report (best bitstring, best cost). *)

val random_sampling :
  Qaoa_util.Rng.t -> ?samples:int -> Problem.t -> int * float
(** Best of [samples] (default 1024) uniform draws. *)

val local_search : Qaoa_util.Rng.t -> Problem.t -> int * float
(** Steepest-ascent single-bit-flip search to a local optimum, best of
    8 random starts.  Each start is O(n * steps) using incremental cost
    deltas. *)

val simulated_annealing : Qaoa_util.Rng.t -> Problem.t -> int * float
(** Metropolis single-flip annealing over 20 * 2^min(n,10) proposals,
    geometric cooling from the largest single-flip |delta| of a random
    state (drawn from [rng]) to 1e-3. *)

val flip_delta : Problem.t -> int -> int -> float
(** [flip_delta p bits i]: exact change of {!Problem.cost} from flipping
    bit [i] of [bits], computed in O(degree(i)) - the kernel both search
    baselines rely on (property-tested against recomputation). *)
