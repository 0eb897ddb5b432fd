(** Immutable point-in-time capture of everything the observability
    layer recorded: merged counters, merged histogram states, and the
    multi-domain span stream.

    A snapshot is a plain value: capturing never mutates the live
    registries (capturing twice with no intervening recording yields
    equal snapshots — no drain-and-add double counting), and every
    export format ({!Exporter.render}) reads from a snapshot rather
    than from live shards. *)

type t = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * Metrics_registry.hist_state) list;
      (** sorted by name; each state's samples sorted *)
  spans : Trace.event list;
      (** in completion order, as {!Trace.events} returns them *)
  dropped_spans : int;
}

val empty : t

val capture : unit -> t
(** Snapshot the live registries across all domain shards. Pure read:
    recording may continue concurrently and the snapshot is internally
    consistent per shard. *)

val counter : t -> string -> int
(** [0] for a name never incremented. *)

val histogram : t -> string -> Metrics_registry.hist_state option
val summary : t -> string -> Metrics_registry.summary option
