(** QAOA p=1 parameter landscapes.

    The hybrid loop's difficulty is set by the (gamma, beta) expectation
    surface; the paper's motivation cites noise flattening this landscape
    (Sec. I).  This module evaluates the exact surface on a grid over
    [0, pi) x [0, pi/2) - analytically for unweighted MaxCut problems,
    via the statevector otherwise - and renders it for inspection. *)

type t = {
  gammas : float array;
  betas : float array;
  values : float array array;  (** [values.(i).(j)] at (gamma_i, beta_j) *)
}

val grid : ?gamma_points:int -> ?beta_points:int -> Problem.t -> t
(** Default 32 x 32.  Uses the closed form when the problem is an
    unweighted MaxCut (all quadratic coefficients equal and no linear
    terms), the simulator otherwise. *)

val best : t -> (float * float) * float
(** Grid argmax: ((gamma, beta), value). *)

val ascii : t -> string
(** Heatmap with one character per grid cell (ramp [" .:-=+*#%@"], low
    to high), one text row per beta value. *)

val to_csv : t -> string
(** Long format: gamma,beta,value per line with a header. *)
