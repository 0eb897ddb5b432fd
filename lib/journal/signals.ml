let resume_hint_of_argv () =
  let argv = Array.to_list Sys.argv in
  let argv = if List.mem "--resume" argv then argv else argv @ [ "--resume" ] in
  String.concat " " argv

let install_drain () =
  let requested = Atomic.make 0 in
  List.iter
    (fun (signal, code) ->
      try
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ ->
               (* record only; the serving loop polls this flag, stops
                  accepting work, finishes in-flight requests, flushes
                  its journal, then exits with the recorded code *)
               ignore (Atomic.compare_and_set requested 0 code)))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  requested

let install ~resume_hint =
  let handle code _ =
    (* flushed-per-record journal + at_exit finalizers make a plain
       [exit] sufficient: no record can be half-written from here *)
    Printf.eprintf "\ninterrupted; resume with: %s\n%!" resume_hint;
    exit code
  in
  List.iter
    (fun (signal, code) ->
      try Sys.set_signal signal (Sys.Signal_handle (handle code))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ]
