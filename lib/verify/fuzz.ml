module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type 'a failure = {
  case : 'a;
  detail : string;
  shrunk : 'a;
  shrunk_detail : string;
  shrink_steps : int;
}

type 'a stats = {
  cases_run : int;
  shrink_runs : int;
  failures : 'a failure list;
}

let guarded run_case c =
  try run_case c
  with e -> Some ("exception: " ^ Printexc.to_string e)

(* Extra case executions each failure may spend on shrinking. *)
let max_shrink_runs = 200

(* Greedy descent: keep replacing the failure with the first still-failing
   shrink candidate until none fails or the run budget is exhausted. *)
let shrink_failure ~shrink ~run_case case detail =
  let runs = ref 0 in
  let steps = ref 0 in
  let rec descend case detail =
    let rec try_candidates = function
      | [] -> (case, detail)
      | c :: rest ->
        if !runs >= max_shrink_runs then (case, detail)
        else begin
          incr runs;
          match guarded run_case c with
          | Some d ->
            incr steps;
            descend c d
          | None -> try_candidates rest
        end
    in
    try_candidates (shrink case)
  in
  let shrunk, shrunk_detail = descend case detail in
  (shrunk, shrunk_detail, !steps, !runs)

let run ?(shrink = fun _ -> []) ~run_case cases =
  Trace.with_span "verify.fuzz.run"
    ~attrs:[ ("cases", Trace.int (List.length cases)) ]
  @@ fun () ->
  let cases_run = ref 0 in
  let shrink_runs = ref 0 in
  let failures = ref [] in
  List.iter
    (fun case ->
      incr cases_run;
      Metrics_registry.incr "verify.fuzz.cases";
      match guarded run_case case with
      | None -> ()
      | Some detail ->
        Metrics_registry.incr "verify.fuzz.failures";
        let shrunk, shrunk_detail, shrink_steps, runs =
          shrink_failure ~shrink ~run_case case detail
        in
        shrink_runs := !shrink_runs + runs;
        failures :=
          { case; detail; shrunk; shrunk_detail; shrink_steps } :: !failures)
    cases;
  {
    cases_run = !cases_run;
    shrink_runs = !shrink_runs;
    failures = List.rev !failures;
  }

let pp_stats ?case_repro ~case_name ppf stats =
  Format.fprintf ppf "cases: %d, failures: %d (shrinking spent %d runs)"
    stats.cases_run
    (List.length stats.failures)
    stats.shrink_runs;
  List.iteri
    (fun i f ->
      Format.fprintf ppf
        "@\n@\nfailure %d: %s@\n  %s@\n  shrunk (%d steps): %s@\n  %s" (i + 1)
        (case_name f.case) f.detail f.shrink_steps (case_name f.shrunk)
        f.shrunk_detail;
      match case_repro with
      | None -> ()
      | Some repro -> (
        match repro f.shrunk with
        | None -> ()
        | Some text ->
          Format.fprintf ppf "@\n  reproducer:@\n";
          String.split_on_char '\n' text
          |> List.iter (fun line -> Format.fprintf ppf "    %s@\n" line)))
    stats.failures
