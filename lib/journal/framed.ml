module Json = Qaoa_obs.Json

type corruption = Refuse of (int -> string) | Drop
type reload = { loaded : int; dropped : int; torn_truncated : int }

let render doc =
  let json = Json.to_string doc in
  Printf.sprintf "%s %s\n" (Crc32.to_hex (Crc32.digest json)) json

(* The document of one checksum-valid line (without its newline), or
   None. *)
let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some sp -> (
    let crc = String.sub line 0 sp in
    let json = String.sub line (sp + 1) (String.length line - sp - 1) in
    match Crc32.of_hex crc with
    | Some c when c = Crc32.digest json -> Json.of_string_opt json
    | _ -> None)

let read_all file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~corruption file decode =
  if not (Sys.file_exists file) then { loaded = 0; dropped = 0; torn_truncated = 0 }
  else begin
    let content = read_all file in
    let len = String.length content in
    let loaded = ref 0 and dropped = ref 0 and torn = ref 0 in
    let truncate_at off =
      let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.ftruncate fd off);
      incr torn
    in
    let rec scan off =
      if off < len then
        match String.index_from_opt content off '\n' with
        | None ->
          (* unterminated tail: the classic torn append *)
          truncate_at off
        | Some nl ->
          let ok =
            match parse_line (String.sub content off (nl - off)) with
            | Some doc -> decode doc
            | None -> false
          in
          if ok then begin
            incr loaded;
            scan (nl + 1)
          end
          else if nl + 1 >= len then
            (* invalid final record: torn mid-write, drop it *)
            truncate_at off
          else begin
            match corruption with
            | Refuse msg -> failwith (msg off)
            | Drop ->
              incr dropped;
              scan (nl + 1)
          end
    in
    scan 0;
    { loaded = !loaded; dropped = !dropped; torn_truncated = !torn }
  end

let open_append file =
  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 file

let append oc doc =
  let line = render doc in
  (match Chaos.intercept line with
  | Chaos.Pass -> output_string oc line
  | Chaos.Torn prefix -> output_string oc prefix);
  flush oc;
  (* a pending simulated crash fires here - after the bytes hit the OS,
     before the caller publishes the record in memory, exactly like a
     real crash *)
  Chaos.die ()

let close oc =
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out_noerr oc
