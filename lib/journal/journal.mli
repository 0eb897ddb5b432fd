(** Durable, resumable trial journal: one JSONL file recording the
    outcome of every completed trial of a sweep.

    Each trial of a trial-structured workload (a figure regeneration, a
    fault sweep, a benchmark campaign) has a deterministic key -
    conventionally ["experiment/strategy/instance/seed"] - and appends
    exactly one record when it finishes, either successfully ([Done]
    with the trial's payload) or permanently failed after supervision
    gave up ([Quarantined] with the failure description).  Records are
    flushed as they are written, so after a crash, SIGKILL or power
    loss the journal holds every trial that completed before the
    failure, plus at most one torn trailing record.

    {b On-disk format.}  A {!Framed} log - one
    [<crc32-hex> <compact JSON>\n] record per line - whose JSON objects
    are [{"key": k, "status": "ok" | "quarantined", "payload": p}].
    On reload every line is checksum- and shape-verified.  A torn or
    corrupt {e trailing} record (the signature of a crash mid-append) is
    truncated away and counted in {!stats}; corruption {e before} the
    final record means the storage itself is damaged and raises
    [Failure] ({!Framed.Refuse}) rather than silently dropping completed
    work.

    Keys are unique: appending a key that is already present raises
    [Invalid_argument], and a journal whose file contains duplicates is
    rejected on load. *)

type status =
  | Done  (** the trial completed; the payload is its result *)
  | Quarantined
      (** supervision exhausted its retries; the payload describes the
          failure.  Resumed sweeps skip quarantined trials instead of
          re-running them. *)

type entry = { status : status; payload : Qaoa_obs.Json.t }

type stats = {
  loaded : int;  (** records read back at [open_] *)
  appended : int;  (** records written by this process *)
  hits : int;  (** successful {!find} lookups (cached trials) *)
  quarantined : int;  (** quarantined records, loaded + appended *)
  torn_truncated : int;  (** torn trailing records dropped at [open_] *)
}

type t

val default_filename : string
(** ["journal.jsonl"], the file {!open_} uses inside its directory. *)

val open_ : ?resume:bool -> dir:string -> unit -> t
(** Open (creating [dir] recursively if needed) the journal at
    [dir/journal.jsonl].

    With [resume = false] (the default) the journal must be empty or
    absent: refusing to silently extend an existing journal forces the
    caller to opt into resumption explicitly ([--resume]) or pick a
    fresh directory.  With [resume = true] existing records are loaded,
    a torn trailing record is truncated away, and subsequent appends
    continue the file.

    The handle is registered with [at_exit], so a normal or [exit]-ed
    process finalizes the journal even if the caller forgets to
    {!close}.
    @raise Failure on mid-file corruption, duplicate keys, or a
    non-empty journal without [resume]. *)

val path : t -> string
(** The journal file's path (inside the directory given to {!open_}). *)

val find : t -> string -> entry option
(** Look a trial up by key; [Some] means the trial already ran (this
    run or a previous one) and counts as a cache hit in {!stats}. *)

val mem : t -> string -> bool
(** {!find} without the hit accounting. *)

val append : t -> key:string -> status:status -> Qaoa_obs.Json.t -> unit
(** Record a finished trial: write the checksummed record, flush it,
    then publish it to {!find}.  The installed {!Chaos} plan (if any)
    intercepts the write - this is the injection point the durability
    tests drive.
    @raise Invalid_argument if [key] was already recorded, or if the
    journal is closed. *)

val entries : t -> int
(** Number of recorded trials visible to {!find}. *)

val stats : t -> stats

val close : t -> unit
(** Flush, fsync and close the file.  Idempotent. *)
