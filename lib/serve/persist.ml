module Json = Qaoa_obs.Json
module Metrics = Qaoa_obs.Metrics_registry
module Framed = Qaoa_journal.Framed
module Atomic_write = Qaoa_journal.Atomic_write

let default_filename = "cache.jsonl"

type t = {
  dir : string;
  file : string;
  lock : Mutex.t;
  mutable oc : out_channel option;  (** [None] once closed *)
  mutable appended : int;
  loaded : int;
  dropped : int;
  torn_truncated : int;
}

type stats = {
  s_loaded : int;
  s_appended : int;
  s_dropped : int;
  s_torn_truncated : int;
}

(* One record per cache insertion, framed by [Framed] exactly like the
   trial journal, so the same torn-tail reasoning applies. *)
let record (key : Cache.key) body =
  Json.Assoc [ ("fingerprint", Json.String key); ("body", Json.Assoc body) ]

(* Reload [file] into [cache].  Unlike the trial journal, a cache is
   disposable state, so corruption is survivable everywhere: a torn
   trailing record is truncated off in place, and a corrupt mid-file
   record is dropped and counted - never served.  Each surviving record
   re-passed its checksum, which is what re-establishes the
   [cached = fresh] byte-equality invariant across the restart: the
   bytes preloaded are exactly the bytes a fresh compile produced
   before the crash. *)
let load file cache =
  (* only "fingerprint" and "body" are read: records written while a
     graph hash was still half of the key carry that hash as a third
     field, which is ignored, so such a journal reloads and keeps
     answering hits *)
  let decode doc =
    match (Json.member "fingerprint" doc, Json.member "body" doc) with
    | Some (Json.String key), Some (Json.Assoc body) ->
      ignore (Cache.preload cache key body);
      true
    | _ -> false
  in
  let r = Framed.load ~corruption:Framed.Drop file decode in
  if r.Framed.torn_truncated > 0 then
    Metrics.incr ~by:r.Framed.torn_truncated "serve.cache.torn_truncated";
  if r.Framed.dropped > 0 then
    Metrics.incr ~by:r.Framed.dropped "serve.cache.dropped";
  r

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        Framed.close oc)

let open_ ?(resume = false) ~dir cache =
  Atomic_write.mkdir_p dir;
  let file = Filename.concat dir default_filename in
  (* a cache journal is warmth, not data: starting fresh just discards
     it (contrast Journal.open_, which refuses) *)
  if (not resume) && Sys.file_exists file then Sys.remove file;
  let r = load file cache in
  let t =
    {
      dir;
      file;
      lock = Mutex.create ();
      oc = Some (Framed.open_append file);
      appended = 0;
      loaded = r.Framed.loaded;
      dropped = r.Framed.dropped;
      torn_truncated = r.Framed.torn_truncated;
    }
  in
  at_exit (fun () -> close t);
  t

let path t = t.file

let append t key body =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()  (* closed during drain: the entry only loses warmth *)
      | Some oc ->
        Framed.append oc (record key body);
        t.appended <- t.appended + 1;
        Metrics.incr "serve.cache.journal_appends")

(* Rewrite the journal to exactly the cache's live entries (LRU order,
   so a reload reproduces recency).  Runs through [Atomic_write]: a
   crash mid-compaction leaves the old journal intact. *)
let compact t cache =
  Mutex.protect t.lock (fun () ->
      let was_open =
        match t.oc with
        | None -> false
        | Some oc ->
          flush oc;
          close_out_noerr oc;
          t.oc <- None;
          true
      in
      Atomic_write.write ~path:t.file (fun oc ->
          List.iter
            (fun (key, body) -> output_string oc (Framed.render (record key body)))
            (Cache.to_list cache));
      Metrics.incr "serve.cache.compactions";
      if was_open then t.oc <- Some (Framed.open_append t.file))

(* Journal records that no longer correspond to a live entry (evicted,
   dropped on load, superseded duplicates) are dead weight; compact
   when there are any, then close.  Dropped records still sit in the
   file, so they count too, or a corrupt line whose artifact was
   recompiled would survive every restart. *)
let finish t cache =
  if t.loaded + t.dropped + t.appended > Cache.size cache then compact t cache;
  close t

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        s_loaded = t.loaded;
        s_appended = t.appended;
        s_dropped = t.dropped;
        s_torn_truncated = t.torn_truncated;
      })
