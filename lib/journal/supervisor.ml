module Json = Qaoa_obs.Json
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

let trial ~journal ~key ~encode ~decode f =
  (* a payload of another shape (a journal written by an older schema)
     must stop the run, never read back as some default *)
  let decode payload =
    try decode payload
    with Failure msg ->
      failwith (Printf.sprintf "journal record %S: %s" key msg)
  in
  match Journal.find journal key with
  | Some { Journal.status = Done; payload } ->
    Metrics.incr "supervisor.trials.cached";
    Completed (decode payload)
  | Some { Journal.status = Quarantined; payload } ->
    Metrics.incr "supervisor.trials.cached_quarantined";
    Quarantined (failure_of_json key payload)
  | None -> (
    match f () with
    | v ->
      Metrics.incr "supervisor.trials.completed";
      let payload = encode v in
      Journal.append journal ~key ~status:Journal.Done payload;
      (* hand back the journal's view of the value so a fresh run and
         a resumed run aggregate bit-identical inputs *)
      Completed (decode payload)
    | exception (Chaos.Injected _ as e) ->
      (* a simulated crash must propagate, never count as a trial
         failure - recovery is exercised by the caller *)
      raise e
    | exception e ->
      Metrics.incr "supervisor.trials.quarantined";
      let failure =
        { f_key = key; f_attempts = 1; f_errors = [ Printexc.to_string e ] }
      in
      Journal.append journal ~key ~status:Journal.Quarantined
        (failure_to_json failure);
      Quarantined failure)
