(** Domain-sharded named counters and histograms.

    Counters count discrete work items ([incr "router.swaps_inserted"]);
    histograms record distributions ([observe "router.layer_size" 7.])
    and summarize with percentiles via [Qaoa_util.Stats].

    Recording goes to a per-domain shard reached through [Domain.DLS],
    so concurrent domains never contend with each other; each shard is
    protected by its own (steady-state uncontended) mutex, so merged
    reads taken while other domains are still recording are exact.
    Reads ({!counter}, {!summary}, {!counters}, {!histograms}, {!dump})
    merge all shards — including those of terminated domains — without
    mutating them: reading twice yields identical results (no
    drain-and-add double counting).

    Like spans, recording is gated on {!Config.enabled} so disabled call
    sites cost a [bool] dereference. *)

val incr : ?by:int -> string -> unit
val observe : string -> float -> unit

val counter : string -> int
(** Current merged value across all shards; [0] for a name never
    incremented. *)

val counters : unit -> (string * int) list
(** All counters merged across shards, sorted by name. *)

type summary = {
  count : int;  (** total observations, exact across shards *)
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
      (** percentiles are computed over the merged retained windows (up
          to {!val-window} recent observations per shard);
          [count]/[sum]/[min]/[max]/[mean] are exact over all
          observations on all shards *)
}

val window : int
(** Number of recent observations retained per histogram shard for
    percentile estimation (4096). *)

val summary : string -> summary option
val histograms : unit -> (string * summary) list
(** All histograms with their merged summaries, sorted by name. *)

type hist_state = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_samples : float array;  (** retained recent observations, sorted *)
}
(** Raw histogram state, the substrate of {!Snapshot}. *)

val summary_of_state : hist_state -> summary

val dump : unit -> (string * int) list * (string * hist_state) list
(** One consistent merged copy of every counter and histogram, sorted by
    name; pure — never mutates shard state. *)

val shard_count : unit -> int
(** Number of registered shards (one per domain that ever recorded,
    including terminated domains; for tests/diagnostics). *)

val reset : unit -> unit
(** Clear every counter and histogram on every shard. *)
