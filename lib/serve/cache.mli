(** Compiled-artifact cache for the serving layer.

    Entries are keyed by {!key}: the request's {e fingerprint}, the
    canonical rendering of everything that determines the response
    body (exact normalized edge list or QASM text, device, policy,
    seed and the remaining options; see {!Request.fingerprint}).  Equal
    keys mean the same problem byte for byte, so a cached body is
    always byte-equal to a fresh compile of the same request.

    The cache is mutex-guarded and shared across worker domains.
    Eviction is least-recently-used over a bounded capacity (the evict
    scan is O(capacity) - fine at the default thousands of entries).

    {b Lookup taxonomy.}  Every {!find} counts a lookup; a present key
    counts a hit there.  A missed lookup is classified when its
    computed artifact comes back: {!store} counts a {e miss} (the
    artifact was cacheable - whether newly inserted or a racing
    duplicate), while an uncacheable artifact (error body, retried
    compile, oversized rendering) counts a {e reject}
    via {!reject} or an [Oversized] store.  As long as every missed
    lookup is followed by exactly one store-or-reject - which the
    serving layer guarantees - [lookups = hits + misses + rejects].

    Counters (when {!Qaoa_obs} recording is enabled):
    [serve.cache.hits], [serve.cache.misses], [serve.cache.reject],
    [serve.cache.inserts], [serve.cache.evictions],
    [serve.cache.reloaded].  The same tallies are always kept
    internally and reported by {!stats}, so tests and the CLI summary
    do not depend on telemetry being configured. *)

type t

type key = string
(** A {!Request.fingerprint}. *)

type stats = {
  lookups : int;  (** total [find] calls *)
  hits : int;
  misses : int;  (** missed lookups whose artifact was cacheable *)
  rejects : int;  (** missed lookups whose artifact was not cacheable *)
  inserts : int;  (** new entries (excludes racing duplicates) *)
  evictions : int;
  reloaded : int;  (** entries preloaded from a persisted journal *)
  size : int;  (** current number of entries *)
}

val create : ?max_entry_bytes:int -> capacity:int -> unit -> t
(** [max_entry_bytes] bounds the rendered JSON size of a single body;
    larger artifacts are rejected by {!store} instead of inserted.
    @raise Invalid_argument if [capacity < 1] or
    [max_entry_bytes < 1] (use [None] at the serving layer to disable
    caching instead). *)

val capacity : t -> int

val find : t -> key -> (string * Qaoa_obs.Json.t) list option
(** Cached response-body fields (without the request id), refreshing
    the entry's recency.  Counts a lookup, and a hit when present. *)

type stored =
  | Stored  (** newly inserted *)
  | Duplicate  (** a racing worker inserted the same key first *)
  | Oversized  (** rendered body exceeds [max_entry_bytes]; rejected *)

val store : t -> key -> (string * Qaoa_obs.Json.t) list -> stored
(** Insert (or refresh) the body for a key, evicting the
    least-recently-used entry when at capacity.  Concurrent stores of
    the same key are idempotent - compilation is deterministic, so
    racing workers compute identical bodies.  Counts the pending miss
    (or a reject when [Oversized]). *)

val reject : t -> unit
(** Classify the pending missed lookup as a reject: the computed
    artifact was not cacheable (error body or retried compile). *)

val preload : t -> key -> (string * Qaoa_obs.Json.t) list -> bool
(** Journal-reload path: insert without touching the lookup taxonomy.
    Returns [false] (and inserts nothing) for duplicates and oversized
    bodies.  Counts [reloaded] / [serve.cache.reloaded]. *)

val to_list : t -> (key * (string * Qaoa_obs.Json.t) list) list
(** Live entries, least recently used first (so replaying them through
    {!preload} reproduces the recency order) - the compaction source. *)

val size : t -> int

val stats : t -> stats
