(** Persistent artifact cache: a crash-tolerant on-disk journal for
    {!Cache}.

    Every cacheable response body is appended to
    [<dir>/cache.jsonl] as one checksummed record under its {!Cache.key}
    (the request fingerprint) -
    [CRCHEX {"fingerprint":"..","body":{..}}\n] - the
    same {!Qaoa_journal.Framed} log as the sweep journal
    ({!Qaoa_journal.Journal}), so the same durability reasoning
    applies: records are flushed as they are
    written, a crash can lose at most the record being appended, and a
    torn trailing record is detected by its checksum and truncated off
    on reload.

    Unlike the sweep journal, a cache is disposable warmth rather than
    authoritative data, so reload survives {e any} corruption
    ({!Qaoa_journal.Framed.Drop}): a corrupt mid-file record is dropped
    and counted instead of refusing the file.  Every surviving record re-passed its CRC, so the bytes
    preloaded into the cache are exactly the bytes a fresh compile
    produced before the crash - the [cached = fresh] byte-equality
    invariant holds across restarts.  Reload reads only
    ["fingerprint"] and ["body"]: records written while a graph hash
    was still half of the key carry it as a third field, which is
    ignored, so such a journal stays warm.

    Appends run under a mutex (workers' stores are already serialized
    by the consume path, but the daemon drain also writes) and pass
    through {!Qaoa_journal.Chaos} interception, so [QAOA_CHAOS]
    crash/tear plans exercise this journal exactly like the sweep one.

    Counters: [serve.cache.journal_appends], [serve.cache.dropped],
    [serve.cache.torn_truncated], [serve.cache.compactions] (and
    [serve.cache.reloaded] via {!Cache.preload}). *)

type t

type stats = {
  s_loaded : int;  (** records reloaded into the cache at open *)
  s_appended : int;  (** records appended this process *)
  s_dropped : int;  (** corrupt mid-file records dropped at open *)
  s_torn_truncated : int;  (** torn trailing records truncated at open *)
}

val default_filename : string
(** ["cache.jsonl"]. *)

val open_ : ?resume:bool -> dir:string -> Cache.t -> t
(** Open (creating [dir] as needed) the cache journal.  With
    [~resume:true] the existing journal is first reloaded into the
    cache via {!Cache.preload} (truncating a torn tail in place,
    dropping corrupt records); without it any previous journal is
    discarded - a cache journal is warmth, not data, so no
    {!Qaoa_journal.Journal.open_}-style refusal.  Registers an
    [at_exit] {!close}. *)

val path : t -> string

val append : t -> Cache.key -> (string * Qaoa_obs.Json.t) list -> unit
(** Append one cache insertion, flushed before return.  Subject to
    chaos interception ({!Qaoa_journal.Chaos.Injected} propagates in
    [Raise] mode).  Silently dropped after {!close} - a late store only
    loses warmth. *)

val compact : t -> Cache.t -> unit
(** Rewrite the journal to exactly the cache's current live entries in
    LRU order, via {!Qaoa_journal.Atomic_write} (a crash mid-compaction
    leaves the previous journal intact). *)

val finish : t -> Cache.t -> unit
(** Compact iff the journal holds dead records (evictions, drops,
    superseded duplicates) - that is, iff reloaded + dropped + appended
    records outnumber the cache's live entries - then {!close}.  The
    drain path. *)

val close : t -> unit
(** Flush, fsync and close.  Idempotent. *)

val stats : t -> stats
