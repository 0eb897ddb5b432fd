type t = { budget_s : float; start_wall : float }

exception Exceeded of { budget_s : float; elapsed_s : float }

let () =
  Printexc.register_printer (function
    | Exceeded { budget_s; elapsed_s } ->
      Some
        (Printf.sprintf "Deadline.Exceeded(budget %.3fs, elapsed %.3fs)"
           budget_s elapsed_s)
    | _ -> None)

let start ~budget_s =
  if not (Float.is_finite budget_s) || budget_s <= 0.0 then
    invalid_arg "Deadline.start: budget must be positive and finite";
  { budget_s; start_wall = Clock.wall () }

let budget_s t = t.budget_s
let elapsed_s t = Clock.wall () -. t.start_wall
let remaining_s t = t.budget_s -. elapsed_s t
let expired t = remaining_s t <= 0.0

let check = function
  | None -> ()
  | Some t ->
    let elapsed_s = elapsed_s t in
    if elapsed_s >= t.budget_s then
      raise (Exceeded { budget_s = t.budget_s; elapsed_s })

let remaining_opt = function
  | None -> None
  | Some t -> Some (Float.max 1e-9 (remaining_s t))

let reseed_stride = 7919

let retry ?deadline ~tries ~seed ~retryable ~on_expiry f =
  if tries < 1 then invalid_arg "Deadline.retry: tries must be >= 1";
  let rec attempt k =
    match deadline with
    | Some t when expired t ->
      (Error (on_expiry ~budget_s:t.budget_s ~elapsed_s:(elapsed_s t)), k)
    | _ -> (
      match f ~attempt:k ~seed:(seed + (reseed_stride * k)) with
      | Error e when retryable e && k + 1 < tries -> attempt (k + 1)
      | outcome -> (outcome, k + 1))
  in
  attempt 0
