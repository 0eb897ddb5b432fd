module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Metrics = Qaoa_circuit.Metrics
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Compliance = Qaoa_backend.Compliance
module Check = Qaoa_verify.Check
module Fuzz = Qaoa_verify.Fuzz
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Compile = Qaoa_core.Compile
module Rng = Qaoa_util.Rng

type case = {
  seed : int;
  nodes : int;
  kind : Workload.graph_kind;
  topology : string;
  strategy : Compile.strategy;
  p : int;
}

let case_name c =
  Printf.sprintf "seed=%d n=%d %s %s %s p=%d" c.seed c.nodes
    (Workload.kind_name c.kind) c.topology
    (Compile.strategy_name c.strategy)
    c.p

let default_strategies =
  [
    Compile.Naive;
    Compile.Greedy_v;
    Compile.Greedy_e;
    Compile.Qaim;
    Compile.Ip;
    Compile.Ic None;
    Compile.Vic None;
  ]

let default_topologies = [ "tokyo"; "melbourne"; "grid6x6"; "linear16"; "ring16" ]

let kinds =
  [
    Workload.Erdos_renyi 0.3;
    Workload.Erdos_renyi 0.5;
    Workload.Regular 3;
    Workload.Barabasi_albert 2;
  ]

let device_of_topology name =
  match Topologies.by_name name with
  | None ->
    invalid_arg
      ("Differential: unknown topology " ^ name ^ "; known: "
      ^ String.concat ", " Topologies.known_names)
  | Some d -> (
    match d.Device.calibration with
    | Some _ -> d
    (* VIC scores with calibration data; attach a fixed-seed synthetic
       snapshot so uncalibrated topologies stay in the sweep and stay
       deterministic. *)
    | None -> Device.with_random_calibration (Rng.create 424242) d)

(* Clamp a drawn node count to the generator's validity domain. *)
let fix_nodes kind n =
  match kind with
  | Workload.Regular d ->
    let n = max n (d + 1) in
    if n * d mod 2 = 1 then n + 1 else n
  | Workload.Barabasi_albert m -> max n (m + 2)
  | Workload.Watts_strogatz (k, _) -> max n (k + 2)
  | Workload.Erdos_renyi _ | Workload.Gnm _ -> max n 2

let params_of_p p = { Ansatz.gammas = Array.make p 0.7; betas = Array.make p 0.4 }

let run_case ?max_semantic_qubits case =
  let device = device_of_topology case.topology in
  let rng = Rng.create case.seed in
  let problem =
    List.hd (Workload.problems rng case.kind ~n:case.nodes ~count:1)
  in
  let params = params_of_p case.p in
  let options = { Compile.default_options with seed = case.seed } in
  let r = Compile.compile ~options ~strategy:case.strategy device problem params in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* 1. translation validation *)
  let logical = Ansatz.circuit ~measure:true problem params in
  let check_options =
    let d = Check.default_options () in
    match max_semantic_qubits with
    | None -> d
    | Some n -> { d with Check.max_semantic_qubits = n }
  in
  let validate options =
    Check.validate ~options ~device ~initial:r.Compile.initial_mapping
      ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count ~logical
      r.Compile.circuit
  in
  let report = validate check_options in
  if not (Check.ok report) then fail "verify: %s" (Check.report_to_string report);
  (* 1b. oracle cross-check: whenever the statevector oracle delivered a
     verdict, the phase-polynomial canonicalizer must deliver the same
     one - this is the small-n differential test backing the large-n
     semantic verdicts. *)
  (match report.Check.semantic with
  | Check.Checked { method_ = Check.Statevector; _ } -> (
    let pp_report =
      validate { check_options with Check.oracle = Check.Phase_poly_only }
    in
    match pp_report.Check.semantic with
    | Check.Checked { method_ = Check.Phase_polynomial; _ } ->
      if Check.ok report <> Check.ok pp_report then
        fail
          "oracle disagreement: statevector says %s but phase polynomial \
           says %s"
          (if Check.ok report then "equivalent" else "inequivalent")
          (if Check.ok pp_report then "equivalent" else "inequivalent")
    | _ -> ())
  | _ -> ());
  (* 2. metric accounting: the result record vs the circuit itself *)
  let gates = Circuit.gates r.Compile.circuit in
  let count p = List.length (List.filter p gates) in
  let cphases = count (function Gate.Cphase _ -> true | _ -> false) in
  let swaps = count (function Gate.Swap _ -> true | _ -> false) in
  let cnots = count (function Gate.Cnot _ -> true | _ -> false) in
  let measures = count (function Gate.Measure _ -> true | _ -> false) in
  let expect name got want =
    if got <> want then fail "%s: %d, expected %d" name got want
  in
  expect "cphase gates" cphases
    (case.p * List.length (Problem.cphase_pairs problem));
  expect "swap gates" swaps r.Compile.swap_count;
  expect "measure gates" measures problem.Problem.num_vars;
  let m = r.Compile.metrics in
  let m2 = Metrics.of_circuit r.Compile.circuit in
  if m <> m2 then
    fail "metrics record (%s) disagrees with recomputation (%s)"
      (Format.asprintf "%a" Metrics.pp m)
      (Format.asprintf "%a" Metrics.pp m2);
  expect "two_qubit_count" m2.Metrics.two_qubit_count
    ((2 * cphases) + (3 * swaps) + cnots);
  if m2.Metrics.depth <= 0 then fail "depth %d not positive" m2.Metrics.depth;
  (* 3. compliance and verifier must agree on coupling violations *)
  let compliance_indices =
    List.map
      (fun v -> v.Compliance.gate_index)
      (Compliance.violations device r.Compile.circuit)
  in
  let verifier_indices =
    List.filter_map
      (function
        | Check.Uncoupled_pair { gate_index; _ } -> Some gate_index
        | _ -> None)
      report.Check.issues
  in
  if compliance_indices <> verifier_indices then
    fail "Compliance (%s) and verifier (%s) disagree on coupling violations"
      (String.concat "," (List.map string_of_int compliance_indices))
      (String.concat "," (List.map string_of_int verifier_indices));
  match !problems with
  | [] -> None
  | ps -> Some (String.concat "; " (List.rev ps))

(* Failure-report artifact: recompile the (shrunk) case and print the
   compiled circuit as OpenQASM, so a fuzz failure is actionable without
   re-running the sweep.  Guarded: a case that crashes during compile
   has no circuit to show. *)
let repro case =
  try
    let device = device_of_topology case.topology in
    let rng = Rng.create case.seed in
    let problem =
      List.hd (Workload.problems rng case.kind ~n:case.nodes ~count:1)
    in
    let params = params_of_p case.p in
    let options = { Compile.default_options with seed = case.seed } in
    let r =
      Compile.compile ~options ~strategy:case.strategy device problem params
    in
    Some
      (Printf.sprintf "// %s\n%s" (case_name case)
         (Qaoa_circuit.Qasm.to_string r.Compile.circuit))
  with _ -> None

let shrink case =
  let smaller =
    List.filter_map
      (fun n ->
        if n < 4 then None
        else
          let n = fix_nodes case.kind n in
          if n >= case.nodes then None else Some { case with nodes = n })
      [ case.nodes - 1; case.nodes - 2 ]
  in
  smaller @ (if case.p > 1 then [ { case with p = 1 } ] else [])

let cases ?(seed = 2026) ?(count = 100) ?(topologies = default_topologies)
    ?(strategies = default_strategies) ?(max_nodes = 12) () =
  if topologies = [] || strategies = [] then
    invalid_arg "Differential.cases: empty dimension";
  let rng = Rng.create seed in
  List.concat
    (List.init count (fun i ->
         let topology = List.nth topologies (i mod List.length topologies) in
         let device = device_of_topology topology in
         let kind = Rng.choice_list rng kinds in
         let raw =
           min
             (6 + Rng.int rng (max 1 (max_nodes - 5)))
             (Device.num_qubits device - 1)
         in
         let nodes = fix_nodes kind raw in
         let case_seed = Rng.int rng 1_000_000 in
         List.map
           (fun strategy ->
             { seed = case_seed; nodes; kind; topology; strategy; p = 1 })
           strategies))

let fuzz ?seed ?count ?topologies ?strategies ?max_nodes ?max_semantic_qubits
    () =
  Fuzz.run ~shrink
    ~run_case:(run_case ?max_semantic_qubits)
    (cases ?seed ?count ?topologies ?strategies ?max_nodes ())
