module Json = Qaoa_obs.Json
module Deadline = Qaoa_obs.Deadline
module Metrics = Qaoa_obs.Metrics_registry

type failure = { f_key : string; f_attempts : int; f_errors : string list }
type 'a outcome = Completed of 'a | Quarantined of failure

let failure_to_json f =
  Json.Assoc
    [
      ("attempts", Json.Int f.f_attempts);
      ("errors", Json.List (List.map (fun e -> Json.String e) f.f_errors));
    ]

let failure_of_json key doc =
  let attempts =
    match Json.member "attempts" doc with Some (Json.Int n) -> n | _ -> 0
  in
  let errors =
    match Json.member "errors" doc with
    | Some (Json.List l) ->
      List.filter_map (function Json.String s -> Some s | _ -> None) l
    | _ -> []
  in
  { f_key = key; f_attempts = attempts; f_errors = errors }

let render_exn = function
  | Deadline.Exceeded { budget_s; elapsed_s } ->
    Printf.sprintf "deadline exceeded (budget %.3fs, elapsed %.3fs)" budget_s
      elapsed_s
  | e -> Printexc.to_string e

let trial ?journal ?deadline_s ?(tries = 1) ~key ~encode ~decode f =
  if tries < 1 then invalid_arg "Supervisor.trial: tries must be >= 1";
  (match deadline_s with
  | Some d when not (Float.is_finite d && d > 0.0) ->
    invalid_arg "Supervisor.trial: deadline_s must be positive and finite"
  | _ -> ());
  let cached =
    match journal with
    | None -> None
    | Some j -> (
      match Journal.find j key with
      | Some { Journal.status = Done; payload } ->
        Metrics.incr "supervisor.trials.cached";
        Some (Completed (decode payload))
      | Some { Journal.status = Quarantined; payload } ->
        Metrics.incr "supervisor.trials.cached_quarantined";
        Some (Quarantined (failure_of_json key payload))
      | None -> None)
  in
  match cached with
  | Some outcome -> outcome
  | None -> (
    let deadline = Option.map (fun budget_s -> Deadline.start ~budget_s) deadline_s in
    (* not [Deadline.retry]: attempts fail by exception and the thunk
       checks the deadline itself, so every attempt started is recorded *)
    let rec attempt_from k errors =
      if k >= tries then Error (List.rev errors)
      else begin
        if k > 0 then Metrics.incr "supervisor.trials.retries";
        match f ~attempt:k ~deadline with
        | v -> Ok v
        | exception (Chaos.Injected _ as e) ->
          (* a simulated crash must propagate, never count as a trial
             failure - recovery is exercised by the caller *)
          raise e
        | exception (Deadline.Exceeded _ as e) ->
          (* the budget spans all attempts: once it is spent, retrying
             would only trip the same check again *)
          Error (List.rev (render_exn e :: errors))
        | exception e -> attempt_from (k + 1) (render_exn e :: errors)
      end
    in
    match attempt_from 0 [] with
    | Ok v ->
      Metrics.incr "supervisor.trials.completed";
      (match journal with
      | None -> Completed v
      | Some j ->
        let payload = encode v in
        Journal.append j ~key ~status:Journal.Done payload;
        (* hand back the journal's view of the value so a fresh run and
           a resumed run aggregate bit-identical inputs *)
        Completed (decode payload))
    | Error errors ->
      Metrics.incr "supervisor.trials.quarantined";
      let failure =
        { f_key = key; f_attempts = List.length errors; f_errors = errors }
      in
      (match journal with
      | None -> ()
      | Some j ->
        Journal.append j ~key ~status:Journal.Quarantined
          (failure_to_json failure));
      Quarantined failure)
