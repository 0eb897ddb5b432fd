module Json = Qaoa_obs.Json
module Deadline = Qaoa_obs.Deadline
module Metrics_registry = Qaoa_obs.Metrics_registry
module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Profile = Qaoa_hardware.Profile
module Router = Qaoa_backend.Router
module Mapping = Qaoa_backend.Mapping
module Circuit = Qaoa_circuit.Circuit
module Metrics = Qaoa_circuit.Metrics
module Qasm = Qaoa_circuit.Qasm
module Decompose = Qaoa_circuit.Decompose
module Dataflow = Qaoa_analysis.Dataflow
module Lint = Qaoa_analysis.Lint
module Graph = Qaoa_graph.Graph
module Chaos = Qaoa_journal.Chaos

(* ------------------------------------------------------------------ *)
(* Shared device table: resolve every device name once per run so all
   workers share one Device.t value - which is what makes the
   Profile distance-matrix memo (keyed on physical identity) hit. *)

module Devices = struct
  type t = { lock : Mutex.t; tbl : (string, Device.t) Hashtbl.t }

  let create () = { lock = Mutex.create (); tbl = Hashtbl.create 8 }

  let resolve t name =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.tbl name with
    | Some d ->
      Mutex.unlock t.lock;
      Some d
    | None ->
      (* unknown names are not stored, so the table is bounded by the
         finite set of canonical device names *)
      let d = Topologies.by_name name in
      Option.iter (Hashtbl.replace t.tbl name) d;
      Mutex.unlock t.lock;
      (* outside the table lock: Profile has its own mutex and dedups
         concurrent warms *)
      Option.iter Profile.precompute d;
      d

  let prewarm t = List.iter (fun n -> ignore (resolve t n)) [ "tokyo"; "melbourne" ]
end

(* ------------------------------------------------------------------ *)
(* Response-body builders (shared with the bad-line path in Serve). *)

let error_body ?extra ~kind detail =
  ("ok", Json.Bool false)
  :: (match extra with Some fs -> fs | None -> [])
  @ [
      ( "error",
        Json.Assoc
          [ ("kind", Json.String kind); ("detail", Json.String detail) ] );
    ]

let is_error body =
  match List.assoc_opt "ok" body with Some (Json.Bool true) -> false | _ -> true

let metrics_fields ~device ~policy ~qubits ~(metrics : Metrics.t) ~swaps =
  [
    ("ok", Json.Bool true);
    ("device", Json.String device.Device.name);
    ("policy", Json.String policy);
    ("qubits", Json.Int qubits);
    ("depth", Json.Int metrics.Metrics.depth);
    ("gates", Json.Int metrics.Metrics.gate_count);
    ("two_qubit", Json.Int metrics.Metrics.two_qubit_count);
    ("swaps", Json.Int swaps);
  ]

(* ------------------------------------------------------------------ *)

type config = {
  tries : int;  (** total attempts per request, >= 1 *)
  deadline_s : float option;  (** per-request budget spanning all attempts *)
}

let default_config = { tries = 2; deadline_s = None }

type t = config

let create config =
  if config.tries < 1 then invalid_arg "Supervise: tries must be >= 1";
  (match config.deadline_s with
  | Some d when not (Float.is_finite d && d > 0.0) ->
    invalid_arg "Supervise: deadline_s must be positive and finite"
  | _ -> ());
  config

(* ------------------------------------------------------------------ *)
(* Test-only fault injection: called before every primary attempt with
   the request id and attempt index; anything it raises flows through
   the regular containment/retry path.  Never set outside tests. *)

let inject_hook : (id:string -> attempt:int -> unit) option ref = ref None

(* ------------------------------------------------------------------ *)

type verdict = {
  body : (string * Json.t) list;
  cacheable : bool;
      (** a first-attempt success: safe to cache.  Errors and retried
          successes are never cached. *)
}

let uncacheable body = { body; cacheable = false }

type attempt_error =
  | Compile_error of Compile.error
  | Internal of string  (** contained exception, outside the taxonomy *)

let attempt_error_body ?extra = function
  | Compile_error e ->
    error_body ?extra ~kind:(Compile.error_kind e) (Compile.error_to_string e)
  | Internal detail -> error_body ?extra ~kind:"internal" detail

let expired ~budget_s ~elapsed_s =
  Compile_error (Compile.Deadline_exceeded { budget_s; elapsed_s })

let problem_of ~n ~edges = Problem.of_maxcut (Graph.of_edges n edges)

let params_of (req : Request.t) =
  {
    Ansatz.gammas = Array.make req.Request.p req.Request.gamma;
    betas = Array.make req.Request.p req.Request.beta;
  }

let options_of (req : Request.t) ~seed ~deadline_s =
  {
    Compile.default_options with
    seed;
    measure = req.Request.measure;
    verify = req.Request.verify;
    analyze = req.Request.analyze;
    deadline_s;
  }

let success_body (req : Request.t) device ~qubits (r : Compile.result) =
  metrics_fields ~device
    ~policy:(Compile.strategy_name r.Compile.strategy)
    ~qubits ~metrics:r.Compile.metrics ~swaps:r.Compile.swap_count
  @ (if req.Request.verify then [ ("verified", Json.Bool true) ] else [])
  @ (match (req.Request.analyze, r.Compile.static) with
    | true, Some s -> [ ("static", Dataflow.summary_to_json s) ]
    | _ -> [])
  @
  if req.Request.qasm_out then
    [ ("qasm", Json.String (Qasm.to_string r.Compile.circuit)) ]
  else []

(* One guarded compile attempt.  Chaos injections must propagate (they
   simulate a process crash; recovery is exercised by the caller);
   everything else is contained into the attempt-error taxonomy. *)
let guarded_compile (req : Request.t) device ~attempt ~seed ~deadline_s ~n
    ~edges =
  match
    (match !inject_hook with
    | Some f -> f ~id:req.Request.id ~attempt
    | None -> ());
    Compile.compile_result
      ~options:(options_of req ~seed ~deadline_s)
      ~strategy:req.Request.policy device (problem_of ~n ~edges)
      (params_of req)
  with
  | Ok r -> Ok r
  | Error e -> Error (Compile_error e)
  | exception (Chaos.Injected _ as e) -> raise e
  | exception Deadline.Exceeded { budget_s; elapsed_s } ->
    Error (expired ~budget_s ~elapsed_s)
  | exception e ->
    Metrics_registry.incr "serve.contained";
    Error (Internal (Printexc.to_string e))

let start_deadline t =
  Option.map (fun budget_s -> Deadline.start ~budget_s) t.deadline_s

(* The supervised primary path: {!Deadline.retry} reseeds retry [k] at
   [seed + Deadline.reseed_stride * k] under one deadline spanning all
   attempts, retrying what {!Compile.retryable} allows and any contained
   exception. *)
let primary t (req : Request.t) device ~n ~edges =
  let deadline = start_deadline t in
  let outcome, attempts =
    Deadline.retry ?deadline ~tries:t.tries ~seed:req.Request.seed
      ~retryable:(function
        | Compile_error e -> Compile.retryable e | Internal _ -> true)
      ~on_expiry:expired
      (fun ~attempt ~seed ->
        if attempt > 0 then Metrics_registry.incr "serve.retries";
        guarded_compile req device ~attempt ~seed
          ~deadline_s:(Deadline.remaining_opt deadline) ~n ~edges)
  in
  let retried =
    if attempts > 1 then [ ("attempts", Json.Int attempts) ] else []
  in
  match outcome with
  | Ok r when attempts = 1 ->
    { body = success_body req device ~qubits:n r; cacheable = true }
  | Ok r ->
    (* reseeded: correct, but not the attempt-0 artifact a fresh cache
       lookup would expect - served, flagged, never cached *)
    uncacheable (success_body req device ~qubits:n r @ retried)
  | Error e -> uncacheable (attempt_error_body ~extra:retried e)

(* The router defers every measurement to the end, so a gate after a
   measurement would be silently reordered: lint rule QL003 refuses such
   a program up front. *)
let gate_after_measure =
  List.find (fun r -> r.Lint.id = "QL003") Lint.builtin_rules

(* Route a raw OpenQASM program straight through the backend router
   under the trivial initial mapping; the policy field is moot and
   there is nothing to reseed, but containment and the request deadline
   apply. *)
let route_qasm t (req : Request.t) device ~qasm =
  match Qasm.of_string qasm with
  | exception Failure msg -> uncacheable (error_body ~kind:"bad_request" msg)
  | circuit -> (
    let nq = Circuit.num_qubits circuit in
    let available = Device.num_qubits device in
    match Lint.run_rule (Lint.context circuit) gate_after_measure with
    | f :: _ -> uncacheable (error_body ~kind:"bad_request" f.Lint.message)
    | [] when nq > available ->
      uncacheable
        (error_body ~kind:"too_many_qubits"
           (Printf.sprintf "program needs %d qubits but the device has %d" nq
              available))
    | [] -> (
      let initial = Mapping.trivial ~num_logical:nq ~num_physical:available in
      let config =
        { Router.default_config with deadline = start_deadline t }
      in
      match Router.route ~config ~device ~initial circuit with
      | routed ->
        {
          body =
            (metrics_fields ~device ~policy:"route" ~qubits:nq
               ~metrics:(Metrics.of_circuit routed.Router.circuit)
               ~swaps:routed.Router.swap_count
            @ (if req.Request.analyze then
                 (* same gate basis as the compile path: analyze the
                    decomposed routed circuit *)
                 [
                   ( "static",
                     Dataflow.summary_to_json
                       (Dataflow.analyze
                          (Decompose.circuit routed.Router.circuit)) );
                 ]
               else [])
            @
            if req.Request.qasm_out then
              [ ("qasm", Json.String (Qasm.to_string routed.Router.circuit)) ]
            else []);
          cacheable = true;
        }
      | exception Router.Unroutable detail ->
        uncacheable (error_body ~kind:"unroutable" detail)
      | exception Deadline.Exceeded { budget_s; elapsed_s } ->
        uncacheable (attempt_error_body (expired ~budget_s ~elapsed_s))
      | exception (Chaos.Injected _ as e) -> raise e
      | exception e ->
        Metrics_registry.incr "serve.contained";
        uncacheable (error_body ~kind:"internal" (Printexc.to_string e))))

let handle t devices (req : Request.t) =
  match Devices.resolve devices req.Request.device with
  | None ->
    uncacheable
      (error_body ~kind:"unknown_device"
         (Printf.sprintf "unknown device %S; known: %s" req.Request.device
            (String.concat ", " Topologies.known_names)))
  | Some device -> (
    match req.Request.source with
    | Request.Qasm qasm -> route_qasm t req device ~qasm
    | Request.Graph { n; edges } -> primary t req device ~n ~edges)
