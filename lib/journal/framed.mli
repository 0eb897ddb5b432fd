(** CRC-framed JSONL log: the on-disk framing shared by the trial
    {!Journal} and the serving layer's persistent artifact cache.

    One record per line: [<crc32-hex> <compact JSON>\n], where the
    checksum covers the JSON text.  Appends are flushed as they are
    written, so a crash can lose at most the record being appended; on
    reload every line is checksum-verified and handed to the caller's
    decoder, which rejects a well-framed document of the wrong shape.

    A torn or otherwise invalid {e trailing} record (the signature of a
    crash mid-append) is truncated off the file in place.  An invalid
    record {e before} the tail means the storage itself is damaged; the
    caller picks how to take that with {!corruption}.

    This module owns the framing only: record schemas, key policy and
    metrics stay with the callers. *)

type corruption =
  | Refuse of (int -> string)
      (** raise [Failure (msg offset)] naming the byte offset of the bad
          record - for authoritative data (the trial journal) *)
  | Drop
      (** skip the record and count it in [dropped] - for disposable
          data (the artifact cache) *)

type reload = {
  loaded : int;  (** records accepted by the decoder *)
  dropped : int;  (** mid-file records skipped under [Drop] *)
  torn_truncated : int;  (** [1] if a trailing record was cut off *)
}

val render : Qaoa_obs.Json.t -> string
(** One framed record line, newline included. *)

val load :
  corruption:corruption -> string -> (Qaoa_obs.Json.t -> bool) -> reload
(** [load ~corruption file decode] replays [file] (all zeros if absent),
    calling [decode] on each checksum-valid document in file order;
    [decode] returns [false] for a document of the wrong shape, which
    then counts as corrupt.  Exceptions from [decode] propagate. *)

val open_append : string -> out_channel
(** Open (creating if needed) [file] for appending records. *)

val append : out_channel -> Qaoa_obs.Json.t -> unit
(** Write one record and flush it.  The installed {!Chaos} plan (if any)
    intercepts the write and may tear it or simulate a crash right after
    the flush. *)

val close : out_channel -> unit
(** Flush, fsync and close. *)
