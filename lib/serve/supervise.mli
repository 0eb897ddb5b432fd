(** Request-level fault containment for the serving layer.

    Every request is computed under supervision: a worker-domain
    exception, a structured {!Qaoa_core.Compile.Error}, or a deadline
    blowout is contained to its own request as a structured
    [{"ok":false,...}] response - it never takes down the daemon and
    never alters any other request's bytes.  Only
    {!Qaoa_journal.Chaos.Injected} propagates (it simulates a process
    crash; recovery is the caller's test subject).

    {b Retry.}  A graph request's compile runs through
    {!Qaoa_obs.Deadline.retry}, the same loop as each strategy of
    {!Qaoa_core.Compile.compile_with_fallback}: a failure that
    {!Qaoa_core.Compile.retryable} allows (unroutable,
    verification-rejected, residual strategy failure), or a contained
    exception, is retried up to [tries - 1] times under the seed
    [seed + Qaoa_obs.Deadline.reseed_stride * attempt] (attempt 0 uses
    the request seed verbatim).  One optional deadline spans {e all}
    attempts, and no attempt starts once it has passed.  A success after
    a retry is served with an ["attempts"] field and is {e not} cached.
    A QASM request is routed once, under the same deadline.

    There is no cross-request state: every response is a function of
    its request alone, except answers under a deadline, which depend on
    the wall clock.  A policy that needs calibration on a device without
    any (VIC on tokyo) answers ["missing_calibration"]; a client that
    wants a fallback names a calibration-free policy.

    Counters: [serve.retries], [serve.contained]. *)

(** Shared device table: resolves every device name once per run so
    all workers share one [Device.t] (which is what makes the
    {!Qaoa_hardware.Profile} distance-matrix memo hit).  Unknown names
    are not stored, so the table is bounded by the finite set of valid
    names. *)
module Devices : sig
  type t

  val create : unit -> t
  val resolve : t -> string -> Qaoa_hardware.Device.t option
  val prewarm : t -> unit
end

type config = {
  tries : int;  (** total attempts per request, >= 1 *)
  deadline_s : float option;  (** per-request budget spanning all attempts *)
}

val default_config : config
(** 2 attempts, no deadline. *)

type t

val create : config -> t
(** @raise Invalid_argument on out-of-range fields. *)

type verdict = {
  body : (string * Qaoa_obs.Json.t) list;
  cacheable : bool;
      (** a first-attempt success: safe to cache and journal.  Errors
          and retried successes are not. *)
}

val handle : t -> Devices.t -> Request.t -> verdict
(** Compute one parsed request under full supervision.  Never raises,
    except {!Qaoa_journal.Chaos.Injected}. *)

(**/**)

val error_body :
  ?extra:(string * Qaoa_obs.Json.t) list ->
  kind:string ->
  string ->
  (string * Qaoa_obs.Json.t) list

val is_error : (string * Qaoa_obs.Json.t) list -> bool

val inject_hook : (id:string -> attempt:int -> unit) option ref
(** Test-only fault injection, called before every primary attempt;
    whatever it raises flows through containment/retry.  Never set
    outside tests. *)
