(* Tests for the durability layer: CRC-32, atomic writes, the JSONL
   trial journal and the framed log it shares with the artifact cache
   (including torn-record recovery at every possible truncation point,
   in both reload modes), the trial supervisor, chaos-injected crash/tear
   resume equivalence, and the CSV escaping round-trip. *)

module Crc32 = Qaoa_journal.Crc32
module Atomic_write = Qaoa_journal.Atomic_write
module Journal = Qaoa_journal.Journal
module Supervisor = Qaoa_journal.Supervisor
module Chaos = Qaoa_journal.Chaos
module Framed = Qaoa_journal.Framed
module Persist = Qaoa_serve.Persist
module Cache = Qaoa_serve.Cache
module Json = Qaoa_obs.Json
module Export = Qaoa_experiments.Export

let temp_dir () =
  let path = Filename.temp_file "qaoa_journal" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- CRC-32 --- *)

let test_crc32_vectors () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check bool) "sensitive to change" true
    (Crc32.digest "hello" <> Crc32.digest "hellp")

let test_crc32_hex_roundtrip () =
  List.iter
    (fun s ->
      let c = Crc32.digest s in
      Alcotest.(check (option int32))
        ("hex roundtrip of " ^ s)
        (Some c)
        (Crc32.of_hex (Crc32.to_hex c)))
    [ ""; "a"; "123456789"; "{\"key\":\"x\"}" ];
  Alcotest.(check (option int32)) "bad length" None (Crc32.of_hex "abc");
  Alcotest.(check (option int32)) "bad chars" None (Crc32.of_hex "xyzwxyzw")

(* --- atomic writes --- *)

let test_atomic_write () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  Atomic_write.write_string ~path "first\n";
  Alcotest.(check string) "written" "first\n" (read_file path);
  Atomic_write.write_string ~path "second\n";
  Alcotest.(check string) "replaced" "second\n" (read_file path);
  (* no temp files survive a successful write *)
  let leftovers =
    List.filter
      (fun f -> f <> "out.txt")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check (list string)) "no temp leftovers" [] leftovers

let test_mkdir_p () =
  with_dir @@ fun dir ->
  let deep = Filename.concat (Filename.concat dir "a") "b" in
  Atomic_write.mkdir_p deep;
  Alcotest.(check bool) "created recursively" true (Sys.is_directory deep);
  (* idempotent *)
  Atomic_write.mkdir_p deep;
  (* refuses to shadow a file *)
  let file = Filename.concat dir "plain" in
  Atomic_write.write_string ~path:file "x";
  Alcotest.(check bool) "file blocks mkdir_p" true
    (try
       Atomic_write.mkdir_p file;
       false
     with Sys_error _ -> true)

(* --- journal basics --- *)

let payload i = Json.Assoc [ ("v", Json.Float (float_of_int i)) ]

let test_journal_roundtrip () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  Journal.append j ~key:"a" ~status:Journal.Done (payload 1);
  Journal.append j ~key:"b" ~status:Journal.Quarantined (payload 2);
  Journal.close j;
  let j2 = Journal.open_ ~resume:true ~dir () in
  Alcotest.(check int) "entries" 2 (Journal.entries j2);
  (match Journal.find j2 "a" with
  | Some { Journal.status = Journal.Done; payload = p } ->
    Alcotest.(check (option (float 0.0)))
      "payload survives" (Some 1.0)
      (Option.bind (Json.member "v" p) Json.to_float)
  | _ -> Alcotest.fail "expected Done entry for a");
  (match Journal.find j2 "b" with
  | Some { Journal.status = Journal.Quarantined; _ } -> ()
  | _ -> Alcotest.fail "expected Quarantined entry for b");
  let s = Journal.stats j2 in
  Alcotest.(check int) "loaded" 2 s.Journal.loaded;
  Alcotest.(check int) "hits" 2 s.Journal.hits;
  Alcotest.(check int) "quarantined" 1 s.Journal.quarantined;
  Alcotest.(check int) "nothing torn" 0 s.Journal.torn_truncated;
  Journal.close j2

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_journal_refuses_without_resume () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  Journal.append j ~key:"a" ~status:Journal.Done (payload 1);
  Journal.close j;
  Alcotest.(check bool) "refused" true
    (try
       ignore (Journal.open_ ~dir ());
       false
     with Failure msg ->
       Alcotest.(check bool) "message mentions --resume" true
         (contains_substring msg "--resume");
       true)

let test_journal_duplicate_key () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  Journal.append j ~key:"a" ~status:Journal.Done (payload 1);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Journal.append j ~key:"a" ~status:Journal.Done (payload 2);
       false
     with Invalid_argument _ -> true);
  Journal.close j

let test_journal_closed_append () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  Journal.close j;
  Alcotest.(check bool) "append after close rejected" true
    (try
       Journal.append j ~key:"a" ~status:Journal.Done (payload 1);
       false
     with Invalid_argument _ -> true)

(* --- torn-record recovery at every truncation point --- *)

(* Three framed records carrying both schemas - the trial journal's
   {"key","status","payload"} and the artifact cache's
   {"fingerprint","body"} - so the very same bytes reload through both
   callers of the framed log: [Journal] refuses mid-file corruption,
   [Persist] drops it.  The extra "graph_hash" field pins reloading a
   cache journal written before the key was the fingerprint alone,
   whose records all carry it. *)
let dual_image =
  String.concat ""
    (List.init 3 (fun i ->
         Framed.render
           (Json.Assoc
              [
                ("key", Json.String (Printf.sprintf "k%d" i));
                ("status", Json.String (if i = 2 then "quarantined" else "ok"));
                ("payload", payload i);
                ("graph_hash", Json.Int i);
                ("fingerprint", Json.String (Printf.sprintf "f%d" i));
                ("body", Json.Assoc [ ("v", Json.Int i) ]);
              ])))

(* Write [content] as both the trial journal and the cache journal of a
   fresh directory, then hand the directory to [f]. *)
let with_both_logs content f =
  with_dir @@ fun dir ->
  let jfile = Filename.concat dir Journal.default_filename
  and pfile = Filename.concat dir Persist.default_filename in
  Atomic_write.write_string ~path:jfile content;
  Atomic_write.write_string ~path:pfile content;
  f dir jfile pfile

let test_torn_recovery_every_cut () =
  (* Replay every possible prefix of a clean 3-record log as a crash
     image: exactly the records whose bytes fully survived (including
     the newline) must load, the rest must be truncated away as one torn
     trailing record, and resume must succeed at every single cut - in
     both reload modes. *)
  let content = dual_image in
  let len = String.length content in
  (* offsets one past each record's newline *)
  let boundaries =
    String.to_seqi content
    |> Seq.filter_map (fun (i, c) -> if c = '\n' then Some (i + 1) else None)
    |> List.of_seq
  in
  Alcotest.(check int) "three records" 3 (List.length boundaries);
  for cut = 0 to len do
    with_both_logs (String.sub content 0 cut) @@ fun dir jfile pfile ->
    let j = Journal.open_ ~resume:true ~dir () in
    let p = Persist.open_ ~resume:true ~dir (Cache.create ~capacity:8 ()) in
    let js = Journal.stats j and ps = Persist.stats p in
    let check what = Alcotest.(check int) (Printf.sprintf "%s at byte %d" what cut) in
    let expect = List.length (List.filter (fun b -> b <= cut) boundaries) in
    check "journal records surviving cut" expect js.Journal.loaded;
    check "cache records surviving cut" expect ps.Persist.s_loaded;
    let torn = if cut = 0 || List.mem cut boundaries then 0 else 1 in
    check "journal torn truncations" torn js.Journal.torn_truncated;
    check "cache torn truncations" torn ps.Persist.s_torn_truncated;
    check "cache drops" 0 ps.Persist.s_dropped;
    (* the files themselves were physically truncated back to the
       boundary *)
    let boundary =
      List.fold_left (fun acc b -> if b <= cut then b else acc) 0 boundaries
    in
    check "journal file truncated" boundary (String.length (read_file jfile));
    check "cache file truncated" boundary (String.length (read_file pfile));
    (* and both logs keep working: append again under a fresh key *)
    Journal.append j ~key:"fresh" ~status:Journal.Done (payload 9);
    Persist.append p "fresh" [ ("v", Json.Int 9) ];
    Journal.close j;
    Persist.close p
  done

let test_midfile_corruption_refused () =
  (* flip a byte inside the first record's JSON *)
  let content = Bytes.of_string dual_image in
  Bytes.set content 12 (if Bytes.get content 12 = 'x' then 'y' else 'x');
  with_both_logs (Bytes.to_string content) @@ fun dir jfile _ ->
  (match Journal.open_ ~resume:true ~dir () with
  | _ -> Alcotest.fail "mid-file corruption must raise"
  | exception Failure msg ->
    Alcotest.(check string) "journal refuses, naming the record"
      (Printf.sprintf
         "Journal: corrupt record at byte 0 of %s (not the trailing record - \
          refusing to drop completed trials)"
         jfile)
      msg);
  let p = Persist.open_ ~resume:true ~dir (Cache.create ~capacity:8 ()) in
  let s = Persist.stats p in
  Persist.close p;
  Alcotest.(check int) "cache drops the record" 1 s.Persist.s_dropped;
  Alcotest.(check int) "cache keeps the rest" 2 s.Persist.s_loaded;
  Alcotest.(check int) "nothing torn" 0 s.Persist.s_torn_truncated

(* --- supervisor --- *)

let float_enc v = Json.Float v

let float_dec doc =
  Option.value ~default:Float.nan (Json.to_float doc)

let test_supervisor_cache_skip () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  let runs = ref 0 in
  let thunk () =
    incr runs;
    42.0
  in
  (match
     Supervisor.trial ~journal:j ~key:"t" ~encode:float_enc ~decode:float_dec
       thunk
   with
  | Supervisor.Completed v -> Alcotest.(check (float 0.0)) "value" 42.0 v
  | Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine");
  (match
     Supervisor.trial ~journal:j ~key:"t" ~encode:float_enc ~decode:float_dec
       thunk
   with
  | Supervisor.Completed v -> Alcotest.(check (float 0.0)) "cached value" 42.0 v
  | Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine");
  Alcotest.(check int) "thunk ran once" 1 !runs;
  Journal.close j

let test_supervisor_quarantine_and_resume () =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  let runs = ref 0 in
  let thunk () =
    incr runs;
    failwith "always broken"
  in
  (match
     Supervisor.trial ~journal:j ~key:"bad" ~encode:float_enc
       ~decode:float_dec thunk
   with
  | Supervisor.Quarantined f ->
    Alcotest.(check string) "key recorded" "bad" f.Supervisor.f_key;
    Alcotest.(check int) "one attempt recorded" 1 f.Supervisor.f_attempts;
    Alcotest.(check (list string)) "the exception, rendered"
      [ Printexc.to_string (Failure "always broken") ]
      f.Supervisor.f_errors
  | Supervisor.Completed _ -> Alcotest.fail "expected quarantine");
  Alcotest.(check int) "one attempt ran" 1 !runs;
  Journal.close j;
  (* a resumed run honours the quarantine without re-running the failure *)
  let j2 = Journal.open_ ~resume:true ~dir () in
  (match
     Supervisor.trial ~journal:j2 ~key:"bad" ~encode:float_enc
       ~decode:float_dec thunk
   with
  | Supervisor.Quarantined f ->
    Alcotest.(check int) "cached attempts" 1 f.Supervisor.f_attempts
  | Supervisor.Completed _ -> Alcotest.fail "expected cached quarantine");
  Alcotest.(check int) "failure not re-run" 1 !runs;
  Journal.close j2;
  (* a quarantine recorded after two attempts, as journals written by
     the earlier retrying supervisor hold, reloads and is honoured too *)
  with_dir @@ fun dir ->
  let json =
    {|{"key":"old","status":"quarantined","payload":{"attempts":2,"errors":["Failure(\"always broken\")","Failure(\"always broken\")"]}}|}
  in
  let oc = open_out_bin (Filename.concat dir Journal.default_filename) in
  Printf.fprintf oc "%s %s\n" (Crc32.to_hex (Crc32.digest json)) json;
  close_out oc;
  let j3 = Journal.open_ ~resume:true ~dir () in
  (match
     Supervisor.trial ~journal:j3 ~key:"old" ~encode:float_enc
       ~decode:float_dec thunk
   with
  | Supervisor.Quarantined f ->
    Alcotest.(check int) "two attempts reloaded" 2 f.Supervisor.f_attempts;
    Alcotest.(check int) "two errors reloaded" 2
      (List.length f.Supervisor.f_errors)
  | Supervisor.Completed _ -> Alcotest.fail "expected reloaded quarantine");
  Alcotest.(check int) "old failure not re-run" 1 !runs;
  Journal.close j3

(* --- chaos: interrupted-then-resumed == uninterrupted --- *)

(* Run [n] supervised trials against a journal in [dir]; trial [i]
   computes a deterministic float.  Returns (results, executions). *)
let run_sweep ~dir ~resume n =
  let executed = ref 0 in
  let j = Journal.open_ ~resume ~dir () in
  Fun.protect
    ~finally:(fun () -> Journal.close j)
    (fun () ->
      let results =
        List.init n (fun i ->
            match
              Supervisor.trial ~journal:j
                ~key:(Printf.sprintf "sweep/i%d" i)
                ~encode:float_enc ~decode:float_dec
                (fun () ->
                  incr executed;
                  (* deliberately awkward float to exercise the codec *)
                  Float.of_int i /. 3.0)
            with
            | Supervisor.Completed v -> v
            | Supervisor.Quarantined _ -> Float.nan)
      in
      (results, !executed))

let test_chaos_crash_resume_identical () =
  let n = 7 in
  let uninterrupted = with_dir (fun dir -> fst (run_sweep ~dir ~resume:false n)) in
  with_dir @@ fun dir ->
  Chaos.set_plan
    (Some { Chaos.action = Chaos.Crash_after 3; mode = Chaos.Raise });
  let crashed =
    try
      ignore (run_sweep ~dir ~resume:false n);
      false
    with Chaos.Injected _ -> true
  in
  Chaos.set_plan None;
  Alcotest.(check bool) "chaos fired" true crashed;
  let resumed, executed = run_sweep ~dir ~resume:true n in
  Alcotest.(check (list (float 0.0)))
    "resumed sweep bit-identical" uninterrupted resumed;
  Alcotest.(check int) "only the missing trials re-ran" (n - 3) executed

let test_chaos_tear_resume_identical () =
  let n = 6 in
  let uninterrupted = with_dir (fun dir -> fst (run_sweep ~dir ~resume:false n)) in
  with_dir @@ fun dir ->
  Chaos.set_plan
    (Some { Chaos.action = Chaos.Tear_after 4; mode = Chaos.Raise });
  (try ignore (run_sweep ~dir ~resume:false n)
   with Chaos.Injected _ -> ());
  Chaos.set_plan None;
  let resumed, executed = run_sweep ~dir ~resume:true n in
  Alcotest.(check (list (float 0.0)))
    "resumed sweep bit-identical after tear" uninterrupted resumed;
  (* the 4th record was torn: 3 survive, 3 re-run *)
  Alcotest.(check int) "torn trial re-ran" (n - 3) executed

let test_chaos_plan_parsing () =
  (match Chaos.plan_of_string "crash-after=4" with
  | Ok { Chaos.action = Chaos.Crash_after 4; mode = Chaos.Exit } -> ()
  | _ -> Alcotest.fail "crash-after=4 misparsed");
  (match Chaos.plan_of_string "tear-after=2" with
  | Ok { Chaos.action = Chaos.Tear_after 2; mode = Chaos.Exit } -> ()
  | _ -> Alcotest.fail "tear-after=2 misparsed");
  (match Chaos.plan_of_string "explode=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense accepted")

(* --- journaled Runner agrees with the direct path --- *)

let test_runner_journaled_matches_direct () =
  let module Runner = Qaoa_experiments.Runner in
  let module Workload = Qaoa_experiments.Workload in
  let module Compile = Qaoa_core.Compile in
  let device = Qaoa_hardware.Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Qaoa_util.Rng.create 7) (Workload.Regular 3) ~n:8
      ~count:3
  in
  let strategies = [ Compile.Naive; Compile.Ic None ] in
  let params = Workload.default_params in
  let direct = Runner.run ~device ~strategies ~params problems in
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir () in
  let journaled =
    Runner.run ~journal:j ~experiment:"t" ~device ~strategies ~params problems
  in
  Journal.close j;
  (* replay from the journal only *)
  let j2 = Journal.open_ ~resume:true ~dir () in
  let replayed =
    Runner.run ~journal:j2 ~experiment:"t" ~device ~strategies ~params
      problems
  in
  let s = Journal.stats j2 in
  Alcotest.(check int) "replay executed nothing" 0 s.Journal.appended;
  Journal.close j2;
  List.iter2
    (fun (a : Runner.aggregate) (b : Runner.aggregate) ->
      Alcotest.(check (float 0.0)) "depth" a.Runner.mean_depth b.Runner.mean_depth;
      Alcotest.(check (float 0.0)) "gates" a.Runner.mean_gates b.Runner.mean_gates;
      Alcotest.(check (float 0.0)) "swaps" a.Runner.mean_swaps b.Runner.mean_swaps;
      Alcotest.(check int) "instances" a.Runner.instances b.Runner.instances;
      Alcotest.(check int) "quarantined" 0 b.Runner.quarantined)
    direct journaled;
  List.iter2
    (fun (a : Runner.aggregate) (b : Runner.aggregate) ->
      Alcotest.(check (float 0.0)) "replay depth" a.Runner.mean_depth
        b.Runner.mean_depth;
      Alcotest.(check (float 0.0)) "replay time" a.Runner.mean_time
        b.Runner.mean_time)
    journaled replayed

(* --- CSV escaping round-trip --- *)

(* Minimal RFC-4180 reader for the exporter's output: rows of fields,
   double quotes doubling inside quoted fields. *)
let parse_csv s =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let len = String.length s in
  let rec plain i =
    if i >= len then (if !fields <> [] || Buffer.length buf > 0 then flush_row ())
    else
      match s.[i] with
      | ',' ->
        flush_field ();
        plain (i + 1)
      | '\n' ->
        flush_row ();
        plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= len then failwith "unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < len && s.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !rows

let label_gen =
  (* labels drawn from an alphabet rich in CSV metacharacters *)
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; '\n'; ' '; '-' ]) (0 -- 12))

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV escaping round-trips through an RFC-4180 reader"
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 5) label_gen))
    (fun labels ->
      let rows = List.map (fun l -> (l, [ 1.0; 2.5 ])) labels in
      let csv = Export.csv_of_rows ~columns:[ "x"; "y" ] rows in
      match parse_csv csv with
      | header :: data ->
        header = [ "workload"; "x"; "y" ]
        && List.length data = List.length labels
        && List.for_all2
             (fun label row -> match row with l :: _ -> l = label | [] -> false)
             labels data
      | [] -> false)

let test_export_all_recursive_dir () =
  with_dir @@ fun dir ->
  let deep = Filename.concat (Filename.concat dir "nested") "csv" in
  let paths =
    Export.export_all ~dir:deep [ ("t", [ "a" ], [ ("row", [ 1.0 ]) ]) ]
  in
  Alcotest.(check int) "one file" 1 (List.length paths);
  Alcotest.(check bool) "file exists under nested dir" true
    (Sys.file_exists (Filename.concat deep "t.csv"))

let suite =
  [
    ("crc32 vectors", `Quick, test_crc32_vectors);
    ("crc32 hex roundtrip", `Quick, test_crc32_hex_roundtrip);
    ("atomic write", `Quick, test_atomic_write);
    ("mkdir_p", `Quick, test_mkdir_p);
    ("journal roundtrip", `Quick, test_journal_roundtrip);
    ("journal refuses without resume", `Quick,
     test_journal_refuses_without_resume);
    ("journal duplicate key", `Quick, test_journal_duplicate_key);
    ("journal closed append", `Quick, test_journal_closed_append);
    ("torn recovery at every cut", `Quick, test_torn_recovery_every_cut);
    ("mid-file corruption refused", `Quick, test_midfile_corruption_refused);
    ("supervisor cache skip", `Quick, test_supervisor_cache_skip);
    ("supervisor quarantine and resume", `Quick,
     test_supervisor_quarantine_and_resume);
    ("chaos crash resume identical", `Quick,
     test_chaos_crash_resume_identical);
    ("chaos tear resume identical", `Quick, test_chaos_tear_resume_identical);
    ("chaos plan parsing", `Quick, test_chaos_plan_parsing);
    ("journaled runner matches direct", `Quick,
     test_runner_journaled_matches_direct);
    ("export_all creates dirs", `Quick, test_export_all_recursive_dir);
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
  ]
