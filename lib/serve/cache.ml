module Metrics_registry = Qaoa_obs.Metrics_registry
module Json = Qaoa_obs.Json

type key = string

type entry = {
  body : (string * Json.t) list;
  mutable last_used : int;  (** logical tick of the most recent access *)
}

(* Lookup taxonomy: every [find] is a lookup; a hit is counted there, a
   miss or reject is counted when the computed body comes back through
   [store]/[reject] - only then is it known whether the artifact was
   cacheable.  The invariant [lookups = hits + misses + rejects] holds
   whenever every missed lookup is followed by exactly one store or
   reject, which is what the serving layer does. *)
type stats = {
  lookups : int;
  hits : int;
  misses : int;
  rejects : int;
  inserts : int;
  evictions : int;
  reloaded : int;
  size : int;
}

type t = {
  lock : Mutex.t;
  cap : int;
  max_entry_bytes : int option;
  tbl : (key, entry) Hashtbl.t;
  mutable tick : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejects : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable reloaded : int;
}

let create ?max_entry_bytes ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  (match max_entry_bytes with
  | Some b when b < 1 ->
    invalid_arg "Cache.create: max_entry_bytes must be >= 1"
  | _ -> ());
  {
    lock = Mutex.create ();
    cap = capacity;
    max_entry_bytes;
    tbl = Hashtbl.create (min capacity 1024);
    tick = 0;
    lookups = 0;
    hits = 0;
    misses = 0;
    rejects = 0;
    inserts = 0;
    evictions = 0;
    reloaded = 0;
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let find t key =
  let r =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        t.lookups <- t.lookups + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          e.last_used <- t.tick;
          t.hits <- t.hits + 1;
          Some e.body
        | None -> None)
  in
  (match r with
  | Some _ -> Metrics_registry.incr "serve.cache.hits"
  | None -> ());
  r

let evict_lru t =
  (* O(size) scan; runs only when a genuinely new key arrives at
     capacity. *)
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, lu) when lu <= e.last_used -> ()
      | _ -> victim := Some (k, e.last_used))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1;
    true
  | None -> false

let body_bytes body = String.length (Json.to_string (Json.Assoc body))

let oversized t body =
  match t.max_entry_bytes with
  | None -> false
  | Some limit -> body_bytes body > limit

(* The artifact was uncacheable (error body, retried compile, ...):
   classify the pending missed lookup as a reject. *)
let reject t =
  locked t (fun () -> t.rejects <- t.rejects + 1);
  Metrics_registry.incr "serve.cache.reject"

type stored = Stored | Duplicate | Oversized

let store t key body =
  if oversized t body then begin
    locked t (fun () -> t.rejects <- t.rejects + 1);
    Metrics_registry.incr "serve.cache.reject";
    Oversized
  end
  else begin
    let outcome =
      locked t (fun () ->
          t.tick <- t.tick + 1;
          t.misses <- t.misses + 1;
          match Hashtbl.find_opt t.tbl key with
          | Some e ->
            (* racing duplicate compute: refresh recency, keep the body
               (deterministic compilation makes both copies identical) *)
            e.last_used <- t.tick;
            (Duplicate, false)
          | None ->
            let evicted =
              if Hashtbl.length t.tbl >= t.cap then evict_lru t else false
            in
            Hashtbl.replace t.tbl key { body; last_used = t.tick };
            t.inserts <- t.inserts + 1;
            (Stored, evicted))
    in
    Metrics_registry.incr "serve.cache.misses";
    (match outcome with
    | Stored, _ -> Metrics_registry.incr "serve.cache.inserts"
    | _ -> ());
    (match outcome with
    | _, true -> Metrics_registry.incr "serve.cache.evictions"
    | _ -> ());
    fst outcome
  end

(* Journal reload path: insert without touching the lookup taxonomy -
   a reloaded entry was never looked up in this process.  Oversized
   entries (the limit may have shrunk between runs) are refused so the
   in-memory invariants match a fresh cache. *)
let preload t key body =
  if oversized t body then false
  else begin
    let fresh =
      locked t (fun () ->
          t.tick <- t.tick + 1;
          match Hashtbl.find_opt t.tbl key with
          | Some e ->
            e.last_used <- t.tick;
            false
          | None ->
            if Hashtbl.length t.tbl >= t.cap then ignore (evict_lru t);
            Hashtbl.replace t.tbl key { body; last_used = t.tick };
            t.reloaded <- t.reloaded + 1;
            true)
    in
    if fresh then Metrics_registry.incr "serve.cache.reloaded";
    fresh
  end

(* Live entries in LRU order (least recently used first), for journal
   compaction: replaying them through [preload] reproduces the same
   recency order. *)
let to_list t =
  locked t (fun () ->
      Hashtbl.fold (fun k e acc -> (k, e.body, e.last_used) :: acc) t.tbl []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
      |> List.map (fun (k, body, _) -> (k, body)))

let size t = locked t (fun () -> Hashtbl.length t.tbl)

let stats t =
  locked t (fun () ->
      {
        lookups = t.lookups;
        hits = t.hits;
        misses = t.misses;
        rejects = t.rejects;
        inserts = t.inserts;
        evictions = t.evictions;
        reloaded = t.reloaded;
        size = Hashtbl.length t.tbl;
      })
