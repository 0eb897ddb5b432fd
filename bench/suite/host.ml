(* Host stamp and /proc readings.  Everything is read relative to the
   working directory or from /proc, never from elsewhere on disk. *)

module Json = Qaoa_obs.Json

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let copy_file ~src ~dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | one :: _ -> Option.value (float_of_string_opt one) ~default:Float.nan
    | [] -> Float.nan)
  | None -> Float.nan

(* VmHWM (peak resident set) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           if not (String.starts_with ~prefix:"VmHWM:" line) then None
           else
             match
               String.map (fun c -> if c = '\t' then ' ' else c) line
               |> String.split_on_char ' '
               |> List.filter_map int_of_string_opt
             with
             | kb :: _ -> Some (float_of_int kb /. 1024.0)
             | [] -> None)

(* The commit of a git checkout in the working directory, read straight
   from .git (the benchmark also runs in plain source trees). *)
let git_commit () =
  let resolve r =
    match read_file (Filename.concat ".git" r) with
    | Some sha -> Some (String.trim sha)
    | None ->
      Option.bind (read_file ".git/packed-refs") (fun packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None))
  in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    let head = String.trim head in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
      let r = String.trim (String.sub head (i + 1) (String.length head - i - 1)) in
      Option.value (resolve r) ~default:"unknown"
    | _ -> head)

let nproc () = Domain.recommended_domain_count ()

let stamp ~load_start ~load_end =
  Json.Assoc
    [
      ("hostname", Json.String (Unix.gethostname ()));
      ("nproc", Json.Int (nproc ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ( "kernel",
        Json.String
          (Option.fold ~none:"unknown" ~some:String.trim
             (read_file "/proc/sys/kernel/osrelease")) );
      ("git_commit", Json.String (git_commit ()));
      ("loadavg_start", Json.Float load_start);
      ("loadavg_end", Json.Float load_end);
    ]
