(** Per-compile wall-clock budgets with cooperative cancellation.

    A deadline is started once at the top of a bounded operation (one
    compile, one fallback chain) and then checked from the hot loops of
    the router, SABRE and incremental compilation.  A check past the
    budget raises {!Exceeded}; callers translate that into their own
    structured error (e.g. [Compile.Deadline_exceeded]) so a slow or
    adversarial instance aborts promptly instead of hanging the whole
    batch.

    Checks read the wall clock ({!Clock.wall}), so cancellation latency
    is one loop iteration of the checking code - microseconds for the
    routing loops, far below any realistic budget. *)

type t

exception Exceeded of { budget_s : float; elapsed_s : float }
(** Raised by {!check} once the budget is spent. *)

val start : budget_s:float -> t
(** Start a deadline [budget_s] seconds from now.
    @raise Invalid_argument if [budget_s] is not positive and finite. *)

val budget_s : t -> float
val elapsed_s : t -> float

val remaining_s : t -> float
(** Seconds left; negative once the deadline has passed. *)

val expired : t -> bool

val check : t option -> unit
(** [check (Some d)] raises {!Exceeded} when [d] has passed; [check None]
    is free.  The [option] form matches how configs carry deadlines. *)

val remaining_opt : t option -> float option
(** Remaining budget in a shape directly usable as a nested operation's
    own budget (e.g. [Compile.options.deadline_s], which must be
    positive): [None] stays unbounded, an expired deadline clamps to a
    tiny positive epsilon so the nested operation's first cooperative
    check trips immediately.  Callers wanting the raw (possibly
    negative) figure use {!remaining_s}. *)

(** {1 Reseeded retries}

    The one retry loop: the serving layer's supervised compile and every
    strategy of [Compile.compile_with_fallback] run their attempts
    through {!retry}. *)

val reseed_stride : int
(** [7919]: attempt [k] runs under [seed + reseed_stride * k], so
    attempt 0 always uses the unperturbed seed. *)

val retry :
  ?deadline:t ->
  tries:int ->
  seed:int ->
  retryable:('e -> bool) ->
  on_expiry:(budget_s:float -> elapsed_s:float -> 'e) ->
  (attempt:int -> seed:int -> ('a, 'e) result) ->
  ('a, 'e) result * int
(** [retry ~tries ~seed ~retryable ~on_expiry f] runs attempt [k]
    (from 0) as [f ~attempt:k ~seed:(seed + reseed_stride * k)] and
    returns the outcome with the number of attempts made.  It stops at
    the first [Ok], at an [Error e] with [not (retryable e)], or after
    [tries] attempts.  One [deadline] spans all attempts: once it has
    passed, no further attempt starts and the result is
    [Error (on_expiry ~budget_s ~elapsed_s)].  [f] itself should
    compile under the remaining budget ({!remaining_opt}).
    @raise Invalid_argument if [tries < 1]. *)
