(* Subprocess and scratch-directory hygiene.  Every child is tracked
   until reaped and every scratch directory until removed; [cleanup]
   runs at exit (including after SIGINT/SIGTERM, which are turned into
   an orderly exit), kills whatever is still alive, waits for it, and
   removes the directories.  Scratch space lives under [.bench_tmp] in
   the working directory so a run writes nowhere else. *)

let scratch_root = ".bench_tmp"
let live_dirs : string list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A child and the read end of a pipe it holds as its stdout: the pipe
   reads EOF the moment the child exits, so a wait wakes exactly then
   instead of at the next poll. *)
type child = { pid : int; exit_fd : Unix.file_descr }

let live : child list ref = ref []
let forget c = live := List.filter (fun l -> l.pid <> c.pid) !live

let rec reap c =
  match Unix.waitpid [] c.pid with
  | _, status ->
    forget c;
    (try Unix.close c.exit_fd with Unix.Unix_error _ -> ());
    Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap c
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    forget c;
    None

let kill_and_reap c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap c : Unix.process_status option)

let cleanup () =
  List.iter kill_and_reap !live;
  List.iter (fun d -> try remove_tree d with Unix.Unix_error _ | Sys_error _ -> ()) !live_dirs;
  live_dirs := [];
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let () = at_exit cleanup

let install_signal_handlers () =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  (* a daemon that vanishes mid-write must cost an EPIPE, not the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let counter = ref 0

(* A fresh, empty scratch directory, removed at exit. *)
let scratch_dir () =
  (try Unix.mkdir scratch_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let dir =
    Filename.concat scratch_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter)
  in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  live_dirs := dir :: !live_dirs;
  dir

let remove_dir dir =
  (try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ());
  live_dirs := List.filter (( <> ) dir) !live_dirs

(* Children must not inherit the library's telemetry or chaos switches
   from the caller's environment: they would change what is measured. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"QAOA_" kv))
  |> Array.of_list

(* Start [prog] with stdin on /dev/null, stdout on the exit pipe and
   stderr into [stderr_path]. *)
let spawn ~stderr_path prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let exit_fd, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ w; err; devnull ])
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (child_env ()) devnull w err)
  in
  let c = { pid; exit_fd } in
  live := c :: !live;
  c

(* Wait for [c] to exit, at most [timeout_s]; [on_poll] runs every
   [every] seconds meanwhile.  On timeout the child is killed and reaped
   and the result is [None]. *)
let wait ?(on_poll = ignore) ?(every = 1.0) ~timeout_s c =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then begin
      kill_and_reap c;
      None
    end
    else
      match Unix.select [ c.exit_fd ] [] [] (Float.min every left) with
      | [], _, _ ->
        on_poll ();
        go ()
      | _ -> (
        match Unix.read c.exit_fd buf 0 (Bytes.length buf) with
        | 0 -> reap c
        | _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* SIGTERM, then a bounded wait for the graceful exit; SIGKILL and reap
   when it does not come.  Returns the exit status seen, if any. *)
let terminate ?(grace_s = 10.0) c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait ~timeout_s:grace_s c

let describe_status = function
  | Some (Unix.WEXITED c) -> Printf.sprintf "exit %d" c
  | Some (Unix.WSIGNALED s) -> Printf.sprintf "signal %d" s
  | Some (Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s
  | None -> "killed after timeout"
