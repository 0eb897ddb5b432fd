module Circuit = Qaoa_circuit.Circuit
module Metrics = Qaoa_circuit.Metrics
module Device = Qaoa_hardware.Device
module Success = Qaoa_hardware.Success
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace
module Clock = Qaoa_obs.Clock
module Metrics_registry = Qaoa_obs.Metrics_registry

type strategy =
  | Naive
  | Greedy_v
  | Greedy_e
  | Vqa_alloc
  | Qaim
  | Ip
  | Ic of int option
  | Vic of int option

let strategy_name = function
  | Naive -> "NAIVE"
  | Greedy_v -> "GreedyV"
  | Greedy_e -> "GreedyE"
  | Vqa_alloc -> "VQA"
  | Qaim -> "QAIM"
  | Ip -> "IP"
  | Ic None -> "IC"
  | Ic (Some l) -> Printf.sprintf "IC(limit=%d)" l
  | Vic None -> "VIC"
  | Vic (Some l) -> Printf.sprintf "VIC(limit=%d)" l

let all_strategies =
  [ Naive; Greedy_v; Greedy_e; Vqa_alloc; Qaim; Ip; Ic None; Vic None ]

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "greedyv" | "greedy_v" -> Some Greedy_v
  | "greedye" | "greedy_e" -> Some Greedy_e
  | "vqa" -> Some Vqa_alloc
  | "qaim" -> Some Qaim
  | "ip" -> Some Ip
  | "ic" -> Some (Ic None)
  | "vic" -> Some (Vic None)
  | _ -> None

type options = {
  seed : int;
  measure : bool;
  peephole : bool;
  verify : bool;
  lint : bool;
  analyze : bool;
  deadline_s : float option;
  router : Router.config;
  qaim : Qaim.config;
}

let default_options =
  {
    seed = 42;
    measure = true;
    peephole = false;
    verify = false;
    lint = false;
    analyze = false;
    deadline_s = None;
    router = Router.default_config;
    qaim = Qaim.default_config;
  }

type error =
  | Too_many_qubits of { needed : int; available : int }
  | Missing_calibration of {
      strategy : strategy;
      coupling : (int * int) option;
    }
  | Unroutable of { strategy : strategy; detail : string }
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
  | Verification_rejected of { strategy : strategy; detail : string }
  | Strategy_failed of { strategy : strategy; detail : string }

let error_kind = function
  | Too_many_qubits _ -> "too_many_qubits"
  | Missing_calibration _ -> "missing_calibration"
  | Unroutable _ -> "unroutable"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Verification_rejected _ -> "verification_rejected"
  | Strategy_failed _ -> "strategy_failed"

let error_to_string = function
  | Too_many_qubits { needed; available } ->
    Printf.sprintf "problem needs %d qubits but the device has %d" needed
      available
  | Missing_calibration { strategy; coupling = None } ->
    Printf.sprintf "%s requires device calibration but none is attached"
      (strategy_name strategy)
  | Missing_calibration { strategy; coupling = Some (u, v) } ->
    Printf.sprintf "%s: calibration records no rate for coupling (%d, %d)"
      (strategy_name strategy) u v
  | Unroutable { strategy; detail } ->
    Printf.sprintf "%s: unroutable: %s" (strategy_name strategy) detail
  | Deadline_exceeded { budget_s; elapsed_s } ->
    Printf.sprintf "deadline exceeded: %.3fs elapsed of a %.3fs budget"
      elapsed_s budget_s
  | Verification_rejected { strategy; detail } ->
    Printf.sprintf "%s: translation validation rejected the circuit: %s"
      (strategy_name strategy) detail
  | Strategy_failed { strategy; detail } ->
    Printf.sprintf "%s failed: %s" (strategy_name strategy) detail

exception Error of error

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Compile.Error: " ^ error_to_string e)
    | _ -> None)

let raise_error e =
  Metrics_registry.incr ("compile.error." ^ error_kind e);
  raise (Error e)

let strategy_needs_calibration = function
  | Vqa_alloc | Vic _ -> true
  | Naive | Greedy_v | Greedy_e | Qaim | Ip | Ic _ -> false

type phase_time = { phase : string; wall_s : float; cpu_s : float }

type result = {
  strategy : strategy;
  circuit : Circuit.t;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  swap_count : int;
  compile_wall_s : float;
  compile_cpu_s : float;
  phase_times : phase_time list;
  metrics : Metrics.t;
  static : Qaoa_analysis.Dataflow.summary option;
  lint_findings : Qaoa_analysis.Lint.finding list;
}

let random_orders rng problem ~p =
  List.init p (fun _ -> Naive.cphase_order rng problem)

(* Route the whole ansatz in one backend call (NAIVE / GreedyV / GreedyE /
   QAIM / IP paths). *)
let route_whole options device problem params ~initial ~orders =
  let circuit =
    Ansatz.circuit ~measure:options.measure ~orders problem params
  in
  Router.route ~config:options.router ~device ~initial circuit

let compile ?(options = default_options) ~strategy device problem params =
  let needed = problem.Problem.num_vars
  and available = Device.num_qubits device in
  if needed > available then
    raise_error (Too_many_qubits { needed; available });
  if
    strategy_needs_calibration strategy
    && Option.is_none device.Device.calibration
  then raise_error (Missing_calibration { strategy; coupling = None });
  (* A per-compile wall-clock budget is threaded into the router config,
     whose loops (and the IC layer former) poll it cooperatively.  The
     clock starts here, so mapping/ordering phases that route nothing
     still count against the budget once routing begins polling. *)
  let options =
    match options.deadline_s with
    | None -> options
    | Some budget_s ->
      let dl = Qaoa_obs.Deadline.start ~budget_s in
      {
        options with
        router = { options.router with Router.deadline = Some dl };
      }
  in
  let rng = Rng.create options.seed in
  let p = Ansatz.levels params in
  try
    Trace.with_span "core.compile.compile"
    ~attrs:
      [
        ("strategy", Trace.str (strategy_name strategy));
        ("device", Trace.str device.Device.name);
        ("num_vars", Trace.int problem.Problem.num_vars);
        ("p", Trace.int p);
      ]
  @@ fun () ->
  let w0 = Clock.wall () and c0 = Clock.cpu () in
  (* Per-phase breakdown, recorded whether or not tracing is enabled;
     when it is, each phase is also a span under the compile root. *)
  let phases = ref [] in
  let timed phase f =
    let v, wall_s, cpu_s = Trace.timed ("core.compile." ^ phase) f in
    phases := { phase; wall_s; cpu_s } :: !phases;
    v
  in
  (* The RNG draw order below (mapping, then ordering, then routing)
     matches the pre-phase-breakdown code path, keeping every seeded
     result bit-identical. *)
  let initial =
    timed "mapping" (fun () ->
        match strategy with
        | Naive -> Naive.initial_mapping rng device problem
        | Greedy_v -> Greedy_mapper.greedy_v rng device problem
        | Greedy_e -> Greedy_mapper.greedy_e rng device problem
        | Vqa_alloc -> Vqa.initial_mapping rng device problem
        | Qaim | Ip | Ic _ | Vic _ ->
          Qaim.initial_mapping ~config:options.qaim rng device problem)
  in
  let orders =
    timed "ordering" (fun () ->
        match strategy with
        | Naive | Greedy_v | Greedy_e | Vqa_alloc | Qaim ->
          Some (random_orders rng problem ~p)
        | Ip -> Some (List.init p (fun _ -> Ip.order rng problem))
        | Ic _ | Vic _ ->
          (* IC/VIC interleave ordering with routing: layer formation
             happens against the live mapping inside [Ic.compile]. *)
          None)
  in
  let routed =
    timed "routing" (fun () ->
        match (strategy, orders) with
        | _, Some orders ->
          route_whole options device problem params ~initial ~orders
        | (Ic packing_limit | Vic packing_limit), None ->
          let config =
            {
              Ic.packing_limit;
              variation_aware = (match strategy with Vic _ -> true | _ -> false);
              router = options.router;
            }
          in
          Ic.compile ~config ~measure:options.measure rng device ~initial
            problem params
        | _, None -> assert false)
  in
  (* Translation validation runs on the routed (pre-decomposition)
     circuit: decomposition rewrites CPHASE/SWAP into basis gates, after
     which the checker's gate accounting no longer applies.  The logical
     reference uses the orders actually compiled when they are known;
     IC/VIC pick their own orders, but any order of the commuting
     cost-layer gates is the same multiset and the same state. *)
  if options.verify then
    timed "verify" (fun () ->
        let logical =
          Ansatz.circuit ~measure:options.measure ?orders problem params
        in
        Qaoa_verify.Check.validate_exn ~device ~initial
          ~final:routed.Router.final_mapping
          ~swap_count:routed.Router.swap_count ~logical routed.Router.circuit);
  let routed =
    timed "decomposition" (fun () ->
        if options.peephole then
          {
            routed with
            Router.circuit =
              Qaoa_circuit.Optimize.circuit
                (Qaoa_circuit.Decompose.circuit routed.Router.circuit);
          }
        else routed)
  in
  let metrics =
    timed "metrics" (fun () -> Metrics.of_circuit routed.Router.circuit)
  in
  let static =
    if not options.analyze then None
    else
      Some
        (timed "analyze" (fun () ->
             (* the commutation depth lower bound and the measured depth
                must share a gate basis, so analyze the decomposed
                circuit (Metrics decomposes internally the same way) *)
             let s =
               Qaoa_analysis.Dataflow.analyze
                 (Qaoa_circuit.Decompose.circuit routed.Router.circuit)
             in
             let lb = s.Qaoa_analysis.Dataflow.lower_bound in
             Trace.add_attr "lower_bound" (Trace.int lb);
             Trace.add_attr "total_slack"
               (Trace.int s.Qaoa_analysis.Dataflow.total_slack);
             if lb > 0 then
               Metrics_registry.observe "compile.depth_over_lower_bound"
                 (float_of_int metrics.Metrics.depth /. float_of_int lb);
             s))
  in
  let lint_findings =
    if not options.lint then []
    else
      timed "lint" (fun () ->
          Qaoa_analysis.Lint.run
            (Qaoa_analysis.Lint.context ~device ~role:Qaoa_analysis.Lint.Compiled
               routed.Router.circuit))
  in
  let compile_wall_s = Clock.wall () -. w0 in
  let compile_cpu_s = Clock.cpu () -. c0 in
  {
    strategy;
    circuit = routed.Router.circuit;
    initial_mapping = initial;
    final_mapping = routed.Router.final_mapping;
    swap_count = routed.Router.swap_count;
    compile_wall_s;
    compile_cpu_s;
    phase_times = List.rev !phases;
    metrics;
    static;
    lint_findings;
  }
  with
  | Router.Unroutable detail -> raise_error (Unroutable { strategy; detail })
  | Qaoa_obs.Deadline.Exceeded { budget_s; elapsed_s } ->
    raise_error (Deadline_exceeded { budget_s; elapsed_s })
  | Qaoa_verify.Check.Verification_failed r ->
    raise_error
      (Verification_rejected
         { strategy; detail = Qaoa_verify.Check.report_to_string r })

let compile_result ?options ~strategy device problem params =
  match compile ?options ~strategy device problem params with
  | r -> Ok r
  | exception Error e -> Result.Error e
  | exception (Invalid_argument detail | Failure detail) ->
    (* Residual ad-hoc failures from strategy internals (e.g. a mapper
       hitting an uncalibrated edge through a path the pre-checks do not
       cover) degrade to a structured error instead of escaping. *)
    let e = Strategy_failed { strategy; detail } in
    Metrics_registry.incr ("compile.error." ^ error_kind e);
    Result.Error e

let default_chain = [ Vic None; Ic None; Ip; Qaim; Greedy_e; Naive ]

type attempt = {
  attempt_strategy : strategy;
  attempt_seed : int;
  attempt_error : error option;
}

type fallback = {
  fallback_result : result;
  attempts : attempt list;
}

(* Whether retrying the same strategy with a fresh seed could plausibly
   succeed.  Structural impossibilities (register too small, calibration
   absent) and an exhausted budget cannot be reseeded away. *)
let retryable = function
  | Unroutable _ | Verification_rejected _ | Strategy_failed _ -> true
  | Too_many_qubits _ | Missing_calibration _ | Deadline_exceeded _ -> false

let compile_with_fallback ?(options = default_options) ?(retries = 1) device
    problem params =
  if retries < 0 then
    invalid_arg "Compile.compile_with_fallback: negative retries";
  Trace.with_span "core.compile.fallback"
    ~attrs:
      [
        ("chain", Trace.int (List.length default_chain));
        ("device", Trace.str device.Device.name);
      ]
  @@ fun () ->
  (* One wall-clock budget for the whole chain: every attempt compiles
     under whatever remains, so a stalling early strategy cannot starve
     the cheap late fallbacks of their error reporting - the chain stops
     with a [Deadline_exceeded] trail instead. *)
  let deadline =
    Option.map
      (fun budget_s -> Qaoa_obs.Deadline.start ~budget_s)
      options.deadline_s
  in
  let trail = ref [] in
  let exhausted () =
    Metrics_registry.incr "compile.fallback.exhausted";
    Result.Error (List.rev !trail)
  in
  let rec walk = function
    | [] -> exhausted ()
    | strat :: rest -> (
      (* Each strategy reseeds from the global attempt index (one trail
         entry per attempt), so the whole fallback trail replays
         bit-identically and the very first attempt uses the caller's
         seed verbatim. *)
      let seed =
        options.seed + (Qaoa_obs.Deadline.reseed_stride * List.length !trail)
      in
      let outcome, _ =
        Qaoa_obs.Deadline.retry ?deadline ~tries:(retries + 1) ~seed
          ~retryable
          ~on_expiry:(fun ~budget_s ~elapsed_s ->
            Deadline_exceeded { budget_s; elapsed_s })
          (fun ~attempt:_ ~seed ->
            Metrics_registry.incr "compile.fallback.attempts";
            let deadline_s = Qaoa_obs.Deadline.remaining_opt deadline in
            let r =
              compile_result ~options:{ options with seed; deadline_s }
                ~strategy:strat device problem params
            in
            trail :=
              {
                attempt_strategy = strat;
                attempt_seed = seed;
                attempt_error =
                  Result.fold ~ok:(fun _ -> None) ~error:Option.some r;
              }
              :: !trail;
            r)
      in
      match outcome with
      | Ok r ->
        if List.length !trail > 1 then
          Metrics_registry.incr "compile.fallback.recovered";
        Ok { fallback_result = r; attempts = List.rev !trail }
      | Result.Error (Deadline_exceeded _) when Option.is_some deadline ->
        exhausted ()
      | Result.Error _ -> walk rest)
  in
  walk default_chain

let success_probability ?include_readout device result =
  Success.of_circuit ?include_readout
    (Device.calibration_exn device)
    result.circuit

let logical_outcome result physical_bits =
  let m = result.final_mapping in
  let n = Mapping.num_logical m in
  let out = ref 0 in
  for l = 0 to n - 1 do
    if physical_bits land (1 lsl Mapping.phys m l) <> 0 then
      out := !out lor (1 lsl l)
  done;
  !out
