(** Descriptive statistics over float samples, used by the experiment
    harness to aggregate per-instance circuit metrics into the per-bar
    means the paper reports. *)

val mean : float list -> float
(** Arithmetic mean.  [mean [] = nan]. *)

val mean_array : float array -> float

val std : float list -> float
(** Population standard deviation. *)

val median : float list -> float
(** Median (average of middle two for even length). *)

val percentile_sorted_array : float -> float array -> float
(** [percentile_sorted_array p sorted] is the [p]-th percentile
    ([0. <= p <= 100.], clamped) of an already-sorted array, with
    linear interpolation between order statistics, so [p = 50.] agrees
    with {!median}.  [nan] on the empty array. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on the empty list. *)

val sum : float list -> float

val ratio : float -> float -> float
(** [ratio a b] = [a /. b], returning [nan] when [b = 0.]. *)

val percent_change : from:float -> to_:float -> float
(** [percent_change ~from ~to_] = [100 * (to_ - from) / from]. *)

val geometric_mean : float list -> float
(** Geometric mean of positive samples. *)

val mean_of_int : int list -> float
(** Mean of integer samples. *)
