module Json = Qaoa_obs.Json
module Metrics = Qaoa_obs.Metrics_registry

type status = Done | Quarantined
type entry = { status : status; payload : Json.t }

type stats = {
  loaded : int;
  appended : int;
  hits : int;
  quarantined : int;
  torn_truncated : int;
}

type t = {
  file : string;
  table : (string, entry) Hashtbl.t;
  mutable oc : out_channel option;  (** [None] once closed *)
  mutable loaded : int;
  mutable appended : int;
  mutable hits : int;
  mutable torn_truncated : int;
}

let default_filename = "journal.jsonl"

let status_to_string = function Done -> "ok" | Quarantined -> "quarantined"

let status_of_string = function
  | "ok" -> Some Done
  | "quarantined" -> Some Quarantined
  | _ -> None

let record ~key ~status payload =
  Json.Assoc
    [
      ("key", Json.String key);
      ("status", Json.String (status_to_string status));
      ("payload", payload);
    ]

(* Load [file] into [table].  Returns (records loaded, torn records
   truncated).  Truncates the file in place when the trailing record is
   torn; raises [Failure] on corruption before the trailing record or on
   duplicate keys. *)
let load file table =
  let decode doc =
    match
      (Json.member "key" doc, Json.member "status" doc, Json.member "payload" doc)
    with
    | Some (Json.String key), Some (Json.String st), Some payload -> (
      match status_of_string st with
      | Some status ->
        if Hashtbl.mem table key then
          failwith (Printf.sprintf "Journal: duplicate key %S in %s" key file);
        Hashtbl.replace table key { status; payload };
        true
      | None -> false)
    | _ -> false
  in
  let corrupt off =
    Printf.sprintf
      "Journal: corrupt record at byte %d of %s (not the trailing record - \
       refusing to drop completed trials)"
      off file
  in
  let r = Framed.load ~corruption:(Framed.Refuse corrupt) file decode in
  if r.Framed.torn_truncated > 0 then Metrics.incr "journal.torn_truncated";
  (r.Framed.loaded, r.Framed.torn_truncated)

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    Framed.close oc

let open_ ?(resume = false) ~dir () =
  Atomic_write.mkdir_p dir;
  let file = Filename.concat dir default_filename in
  let table = Hashtbl.create 256 in
  let loaded, torn =
    if resume then load file table
    else begin
      (if Sys.file_exists file then
         let len =
           let ic = open_in_bin file in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> in_channel_length ic)
         in
         if len > 0 then
           failwith
             (Printf.sprintf
                "Journal: %s already holds records; pass --resume to \
                 continue it or choose a fresh --journal directory"
                file));
      (0, 0)
    end
  in
  let oc = Framed.open_append file in
  let t =
    { file; table; oc = Some oc; loaded; appended = 0; hits = 0;
      torn_truncated = torn }
  in
  at_exit (fun () -> close t);
  t

let mem t key = Hashtbl.mem t.table key

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    Metrics.incr "journal.hits";
    Some e
  | None -> None

let append t ~key ~status payload =
  (match t.oc with
  | None -> invalid_arg "Journal.append: journal is closed"
  | Some oc ->
    if Hashtbl.mem t.table key then
      invalid_arg (Printf.sprintf "Journal.append: duplicate key %S" key);
    Framed.append oc (record ~key ~status payload);
    Hashtbl.replace t.table key { status; payload };
    t.appended <- t.appended + 1;
    Metrics.incr "journal.appends");
  ()

let entries t = Hashtbl.length t.table

let stats t =
  {
    loaded = t.loaded;
    appended = t.appended;
    hits = t.hits;
    quarantined =
      Hashtbl.fold
        (fun _ e acc -> if e.status = Quarantined then acc + 1 else acc)
        t.table 0;
    torn_truncated = t.torn_truncated;
  }

let summary t =
  let s = stats t in
  Printf.sprintf
    "journal: %d trial(s) on record at %s (%d cached, %d executed, %d \
     quarantined%s)"
    (entries t) t.file s.hits s.appended s.quarantined
    (if s.torn_truncated > 0 then
       Printf.sprintf ", %d torn record(s) truncated" s.torn_truncated
     else "")
