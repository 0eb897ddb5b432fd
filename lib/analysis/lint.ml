module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Optimize = Qaoa_circuit.Optimize
module Layering = Qaoa_circuit.Layering
module Metrics = Qaoa_circuit.Metrics
module Decompose = Qaoa_circuit.Decompose
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Success = Qaoa_hardware.Success
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry
module Json = Qaoa_obs.Json

type severity = Info | Warn | Error

let severity_name = function Info -> "INFO" | Warn -> "WARN" | Error -> "ERROR"

let severity_of_string s =
  match String.uppercase_ascii s with
  | "INFO" -> Some Info
  | "WARN" | "WARNING" -> Some Warn
  | "ERROR" -> Some Error
  | _ -> None

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2
let severity_compare a b = compare (severity_rank a) (severity_rank b)

type finding = {
  rule : string;
  severity : severity;
  message : string;
  gate_span : (int * int) option;
  fix_hint : string option;
}

type applies = Logical | Compiled | Both

type context = {
  circuit : Circuit.t;
  device : Device.t option;
  max_depth : int option;
  min_success_prob : float option;
  lower_bound_factor : float option;
  gates : Gate.t array;
  layers : int array Lazy.t;
  dataflow : Dataflow.t Lazy.t;
  plain_redundancies : (int * int) list Lazy.t;
}

let context ?device ?max_depth ?min_success_prob ?lower_bound_factor circuit =
  {
    circuit;
    device;
    max_depth;
    min_success_prob;
    lower_bound_factor;
    gates = Array.of_list (Circuit.gates circuit);
    layers = lazy (Layering.gate_layers circuit);
    dataflow = lazy (Dataflow.of_circuit circuit);
    plain_redundancies =
      lazy (Optimize.redundancies ~through_commuting:false circuit);
  }

let dataflow ctx = Lazy.force ctx.dataflow

type rule = {
  id : string;
  severity : severity;
  applies : applies;
  fix_hint : string;
  check : context -> ((int * int) option * string) list;
}

let gate_str g = Format.asprintf "%a" Gate.pp g

(* The located messages [f i g] of every gate, in gate order. *)
let per_gate ctx f =
  let out = ref [] in
  Array.iteri (fun i g -> out := List.rev_append (f i g) !out) ctx.gates;
  List.rev !out

(* ---------------------------------------------------------------- *)
(* Built-in rules                                                   *)
(* ---------------------------------------------------------------- *)

(* A two-qubit gate on a physically uncoupled pair can never be
   executed; the mapper/router must have been bypassed or given the
   wrong device. *)
let check_uncoupled ctx =
  match ctx.device with
  | None -> []
  | Some dev ->
    per_gate ctx (fun i g ->
        match Gate.qubits g with
        | [ a; b ] when Gate.is_two_qubit g && not (Device.coupled dev a b) ->
          [
            ( Some (i, i),
              Printf.sprintf "%s acts on pair (%d, %d), uncoupled on %s"
                (gate_str g) a b dev.Device.name );
          ]
        | _ -> [])

(* An executed coupling with no calibration entry means the
   variation-aware passes scored it blind (Profile falls back to the
   pessimistic ceiling); reported once per coupling. *)
let check_missing_calibration ctx =
  match ctx.device with
  | None | Some { Device.calibration = None; _ } -> []
  | Some ({ Device.calibration = Some cal; _ } as dev) ->
    let seen = Hashtbl.create 16 in
    per_gate ctx (fun i g ->
        match Gate.qubits g with
        | [ a; b ]
          when Gate.is_two_qubit g
               && Device.coupled dev a b
               && Calibration.cnot_error_opt cal a b = None
               && not (Hashtbl.mem seen (min a b, max a b)) ->
          Hashtbl.add seen (min a b, max a b) ();
          [
            ( Some (i, i),
              Printf.sprintf
                "coupling (%d, %d) is used by %s but has no calibration entry"
                (min a b) (max a b) (gate_str g) );
          ]
        | _ -> [])

(* Any gate touching a wire after its measurement - the classical
   outcome is already latched, so the gate is at best dead code and at
   worst a misordered program. *)
let check_gate_after_measure ctx =
  let measured_at = Array.make (Circuit.num_qubits ctx.circuit) (-1) in
  per_gate ctx (fun i g ->
      let found =
        List.filter_map
          (fun q ->
            let m = measured_at.(q) in
            if m < 0 then None
            else
              Some
                ( Some (m, i),
                  Printf.sprintf
                    "%s touches qubit %d after its measurement at gate %d"
                    (gate_str g) q m ))
          (Gate.qubits g)
      in
      (match g with
      | Gate.Measure q when measured_at.(q) < 0 -> measured_at.(q) <- i
      | _ -> ());
      found)

(* Allocated but untouched qubits usually mean the register was sized
   to the device rather than the problem. *)
let check_idle_qubit ctx =
  let used = Circuit.used_qubits ctx.circuit in
  List.filter_map
    (fun q ->
      if List.mem q used then None
      else Some (None, Printf.sprintf "qubit %d is allocated but never used" q))
    (List.init (Circuit.num_qubits ctx.circuit) Fun.id)

(* Adjacent pairs the Optimize pass would cancel or merge - evidence the
   circuit was emitted without (or after defeating) the peephole
   pass. *)
let check_redundant_adjacent ctx =
  List.map
    (fun (i, j) ->
      ( Some (i, j),
        Printf.sprintf
          "%s at gate %d cancels against or merges into %s at gate %d"
          (gate_str ctx.gates.(j)) j (gate_str ctx.gates.(i)) i ))
    (Lazy.force ctx.plain_redundancies)

(* A SWAP followed on both wires only by measurements permutes
   classical bits, not quantum state - it can be deleted and absorbed
   into readout relabeling. *)
let check_swap_sandwich ctx =
  (* last.(q): the last gate on wire q other than Barrier and Measure;
     a SWAP is absorbable iff it is that gate on both its wires *)
  let last = Array.make (Circuit.num_qubits ctx.circuit) (-1) in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Measure _ -> ()
      | g -> List.iter (fun q -> last.(q) <- i) (Gate.qubits g))
    ctx.gates;
  per_gate ctx (fun i g ->
      match g with
      | Gate.Swap (a, b) when last.(a) = i && last.(b) = i ->
        [
          ( Some (i, i),
            Printf.sprintf
              "swap(%d, %d) is followed only by measurements on both wires" a
              b );
        ]
      | _ -> [])

(* Decomposed critical path above the caller's depth budget. *)
let check_depth ctx =
  match ctx.max_depth with
  | None -> []
  | Some budget ->
    let m = Metrics.of_circuit ctx.circuit in
    if m.Metrics.depth <= budget then []
    else
      [
        ( None,
          Printf.sprintf "decomposed depth %d exceeds the budget of %d"
            m.Metrics.depth budget );
      ]

(* ESP-style gate-error success product below the caller's threshold.
   Uncalibrated couplings are charged the rate VIC's router charges
   them ({!Calibration.unrecorded_error}), so a stale snapshot degrades
   the estimate instead of raising. *)
let check_success_prob ctx =
  match (ctx.min_success_prob, ctx.device) with
  | Some threshold, Some { Device.calibration = Some cal; _ } ->
    let p =
      Success.of_circuit ~unrecorded:(Calibration.unrecorded_error cal) cal
        ctx.circuit
    in
    if p >= threshold then []
    else
      [
        ( None,
          Printf.sprintf
            "estimated success probability %.3e is below the %.3e threshold" p
            threshold );
      ]
  | _ -> []

(* A SWAP with zero commutation slack sits on the critical path - its 3
   CNOTs stretch the whole circuit, where an off-path SWAP hides in
   another wire's shadow for free. *)
let check_critical_swap ctx =
  let df = dataflow ctx in
  per_gate ctx (fun i g ->
      match g with
      | Gate.Swap (a, b) when Dataflow.slack df i = 0 ->
        [
          ( Some (i, i),
            Printf.sprintf
              "swap(%d, %d) has zero commutation slack - its 3 CNOTs extend \
               the critical path"
              a b );
        ]
      | _ -> [])

(* Two commuting CPHASEs that are consecutive on a shared qubit yet sit
   layers apart - the wire idles in between even though the DAG allows
   packing them closer. *)
let missed_packing_gap = 3

let check_missed_packing ctx =
  let dag = Dataflow.dag (dataflow ctx) in
  let layers = Lazy.force ctx.layers in
  let last_on = Array.make (Circuit.num_qubits ctx.circuit) (-1) in
  per_gate ctx (fun j g ->
      List.filter_map
        (fun q ->
          let i = last_on.(q) in
          last_on.(q) <- j;
          match (g, if i >= 0 then ctx.gates.(i) else Gate.Barrier) with
          | Gate.Cphase _, Gate.Cphase _ ->
            let gap = layers.(j) - layers.(i) - 1 in
            if gap < missed_packing_gap || Commute.reachable dag i j then None
            else
              Some
                ( Some (i, j),
                  Printf.sprintf
                    "commuting %s (layer %d) and %s (layer %d) are \
                     consecutive on qubit %d but %d idle layers apart - \
                     packing missed"
                    (gate_str ctx.gates.(i)) layers.(i) (gate_str g) layers.(j)
                    q gap )
          | _ -> None)
        (Gate.qubits g))

(* A measured qubit idling for several layers between its last gate and
   its measurement - the wire stays live (and decohering) for nothing;
   an ALAP-scheduled measurement would end it sooner. *)
let measure_delay_gap = 5

let check_measure_delay ctx =
  let layers = Lazy.force ctx.layers in
  let last_gate = Array.make (Circuit.num_qubits ctx.circuit) (-1) in
  per_gate ctx (fun i g ->
      let found =
        match g with
        | Gate.Measure q when last_gate.(q) >= 0 ->
          let prev = last_gate.(q) in
          let gap = layers.(i) - layers.(prev) - 1 in
          if gap < measure_delay_gap then []
          else
            [
              ( Some (prev, i),
                Printf.sprintf
                  "qubit %d idles %d layers between its last gate (%s, \
                   layer %d) and its measurement - live long past last use"
                  q gap (gate_str ctx.gates.(prev)) layers.(prev) );
            ]
        | _ -> []
      in
      List.iter (fun q -> last_gate.(q) <- i) (Gate.qubits g);
      found)

(* Redundant pairs reachable only through commuting neighbours - plain
   adjacency cannot see them; a commutation-aware rewrite (the
   strengthened Optimize pass) cancels or merges them. *)
let check_commuting_redundancy ctx =
  (* Both scans ascend in j with at most one pair per j, and a plain
     pair is the full scan's pair for its j: the plain scan sees through
     a subset of what [Gate.commutes] does. *)
  let rec minus full plain =
    match (full, plain) with
    | (_, j) :: full, (_, j') :: plain when j = j' -> minus full plain
    | pair :: full, plain -> pair :: minus full plain
    | [], _ -> []
  in
  minus
    (Optimize.redundancies ~through_commuting:true ctx.circuit)
    (Lazy.force ctx.plain_redundancies)
  |> List.map (fun (i, j) ->
         ( Some (i, j),
           Printf.sprintf
             "%s at gate %d cancels against or merges into %s at gate %d \
              after commuting past the %d intervening gate(s)"
             (gate_str ctx.gates.(j)) j (gate_str ctx.gates.(i)) i
             (j - i - 1) ))

(* Depth more than a configurable factor above the commutation depth
   lower bound - most of the circuit's length is scheduling waste, not
   structure.  Computed on the decomposed circuit so the bound and the
   measured depth share a gate basis. *)
let check_depth_above_bound ctx =
  match ctx.lower_bound_factor with
  | None -> []
  | Some factor ->
    let s = Dataflow.analyze (Decompose.circuit ctx.circuit) in
    let depth = float_of_int s.Dataflow.measured_depth
    and bound = float_of_int s.Dataflow.lower_bound in
    if s.Dataflow.lower_bound > 0 && depth > factor *. bound then
      [
        ( None,
          Printf.sprintf
            "decomposed depth %d is %.2fx the commutation lower bound %d \
             (budget %.2fx)"
            s.Dataflow.measured_depth (depth /. bound) s.Dataflow.lower_bound
            factor );
      ]
    else []

let builtin_rules =
  [
    {
      id = "QL001";
      severity = Error;
      applies = Compiled;
      fix_hint = "re-run mapping/routing against this device's coupling graph";
      check = check_uncoupled;
    };
    {
      id = "QL002";
      severity = Warn;
      applies = Compiled;
      fix_hint =
        "refresh the calibration snapshot or avoid the uncharacterized \
         coupling";
      check = check_missing_calibration;
    };
    {
      id = "QL003";
      severity = Error;
      applies = Both;
      fix_hint = "move all measurements to the end of the circuit";
      check = check_gate_after_measure;
    };
    {
      id = "QL004";
      severity = Info;
      applies = Logical;
      fix_hint = "shrink the register to the qubits the program touches";
      check = check_idle_qubit;
    };
    {
      id = "QL005";
      severity = Warn;
      applies = Both;
      fix_hint = "run the Optimize pass (or stop re-emitting the inverse pair)";
      check = check_redundant_adjacent;
    };
    {
      id = "QL006";
      severity = Warn;
      applies = Compiled;
      fix_hint =
        "delete the SWAP and relabel the measured bits (3 CNOTs saved)";
      check = check_swap_sandwich;
    };
    {
      id = "QL007";
      severity = Warn;
      applies = Both;
      fix_hint =
        "raise the budget, lower the QAOA level, or pick a shallower \
         compilation policy";
      check = check_depth;
    };
    {
      id = "QL008";
      severity = Warn;
      applies = Compiled;
      fix_hint =
        "use a variation-aware policy (VIC) or reduce the two-qubit gate count";
      check = check_success_prob;
    };
    {
      id = "QL009";
      severity = Warn;
      applies = Compiled;
      fix_hint =
        "choose a route that keeps SWAPs off the critical path, or absorb \
         this one into the initial mapping";
      check = check_critical_swap;
    };
    {
      id = "QL010";
      severity = Info;
      applies = Both;
      fix_hint =
        "let a commutation-aware scheduler (IC/VIC layer formation) pull the \
         later CPHASE earlier";
      check = check_missed_packing;
    };
    {
      id = "QL011";
      severity = Info;
      applies = Both;
      fix_hint =
        "schedule the measurement ALAP-adjacent to the last gate to cut idle \
         decoherence";
      check = check_measure_delay;
    };
    {
      id = "QL012";
      severity = Warn;
      applies = Both;
      fix_hint =
        "run the Optimize pass (it reaches partners through commuting \
         neighbours)";
      check = check_commuting_redundancy;
    };
    {
      id = "QL013";
      severity = Warn;
      applies = Both;
      fix_hint =
        "a commutation-aware policy (IC/VIC) or better routing could close \
         the gap to the bound";
      check = check_depth_above_bound;
    };
  ]

let run_rule ctx r =
  List.map
    (fun (gate_span, message) ->
      {
        rule = r.id;
        severity = r.severity;
        message;
        gate_span;
        fix_hint = Some r.fix_hint;
      })
    (r.check ctx)

let run ctx =
  let compiled = ctx.device <> None in
  Trace.with_span "analysis.lint.run"
    ~attrs:
      [
        ("role", Trace.str (if compiled then "compiled" else "logical"));
        ("gates", Trace.int (Array.length ctx.gates));
        ("rules", Trace.int (List.length builtin_rules));
      ]
  @@ fun () ->
  let findings =
    List.concat_map
      (fun r ->
        match r.applies with
        | Compiled when not compiled -> []
        | Logical when compiled -> []
        | _ -> run_rule ctx r)
      builtin_rules
  in
  List.iter
    (fun (f : finding) ->
      Metrics_registry.incr
        ("lint.findings." ^ String.lowercase_ascii (severity_name f.severity)))
    findings;
  Trace.add_attr "findings" (Trace.int (List.length findings));
  findings

let max_severity (findings : finding list) =
  List.fold_left
    (fun acc (f : finding) ->
      match acc with
      | None -> Some f.severity
      | Some s -> Some (if severity_compare f.severity s > 0 then f.severity else s))
    None findings

let count sev (findings : finding list) =
  List.length (List.filter (fun (f : finding) -> f.severity = sev) findings)

let exit_code ?(deny = Error) (findings : finding list) =
  if List.exists (fun (f : finding) -> f.severity = Error) findings then 2
  else if
    List.exists (fun (f : finding) -> severity_compare f.severity deny >= 0) findings
  then 1
  else 0

(* ---------------------------------------------------------------- *)
(* Reporters                                                        *)
(* ---------------------------------------------------------------- *)

let to_text findings =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      let where =
        match f.gate_span with
        | None -> ""
        | Some (i, j) when i = j -> Printf.sprintf " [gate %d]" i
        | Some (i, j) -> Printf.sprintf " [gates %d-%d]" i j
      in
      Buffer.add_string buf
        (Printf.sprintf "%-5s %s%s: %s\n" (severity_name f.severity) f.rule where
           f.message);
      Option.iter
        (fun h -> Buffer.add_string buf (Printf.sprintf "      fix: %s\n" h))
        f.fix_hint)
    findings;
  Buffer.add_string buf
    (Printf.sprintf "%d error(s), %d warning(s), %d info(s)\n" (count Error findings)
       (count Warn findings) (count Info findings));
  Buffer.contents buf

let finding_to_json f =
  Json.Assoc
    [
      ("rule", Json.String f.rule);
      ("severity", Json.String (severity_name f.severity));
      ("message", Json.String f.message);
      ( "gate_span",
        match f.gate_span with
        | None -> Json.Null
        | Some (i, j) -> Json.List [ Json.Int i; Json.Int j ] );
      ( "fix_hint",
        match f.fix_hint with None -> Json.Null | Some h -> Json.String h );
    ]

let report_to_json findings =
  Json.Assoc
    [
      ("version", Json.Int 1);
      ("findings", Json.List (List.map finding_to_json findings));
      ( "summary",
        Json.Assoc
          [
            ("error", Json.Int (count Error findings));
            ("warn", Json.Int (count Warn findings));
            ("info", Json.Int (count Info findings));
            ( "max_severity",
              match max_severity findings with
              | None -> Json.Null
              | Some s -> Json.String (severity_name s) );
          ] );
    ]
