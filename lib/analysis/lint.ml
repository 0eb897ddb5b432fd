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

type role = Logical | Compiled

type context = {
  circuit : Circuit.t;
  role : role;
  device : Device.t option;
  max_depth : int option;
  min_success_prob : float option;
  lower_bound_factor : float option;
  dataflow : Dataflow.t Lazy.t;
  plain_redundancies : (int * int) list Lazy.t;
}

let context ?device ?max_depth ?min_success_prob ?lower_bound_factor ~role
    circuit =
  {
    circuit;
    role;
    device;
    max_depth;
    min_success_prob;
    lower_bound_factor;
    dataflow = lazy (Dataflow.of_circuit circuit);
    plain_redundancies =
      lazy (Optimize.redundancies ~through_commuting:false circuit);
  }

type rule = {
  id : string;
  name : string;
  severity : severity;
  roles : role list;
  check : context -> finding list;
}

let gate_str g = Format.asprintf "%a" Gate.pp g

(* ---------------------------------------------------------------- *)
(* Built-in rules                                                   *)
(* ---------------------------------------------------------------- *)

(* QL001: a two-qubit gate on a physically uncoupled pair can never be
   executed; the mapper/router must have been bypassed or given the
   wrong device. *)
let check_uncoupled ctx =
  match ctx.device with
  | None -> []
  | Some dev ->
    let findings = ref [] in
    List.iteri
      (fun i g ->
        match Gate.qubits g with
        | [ a; b ] when Gate.is_two_qubit g && not (Device.coupled dev a b) ->
          findings :=
            {
              rule = "QL001";
              severity = Error;
              message =
                Printf.sprintf "%s acts on pair (%d, %d), uncoupled on %s"
                  (gate_str g) a b dev.Device.name;
              gate_span = Some (i, i);
              fix_hint =
                Some "re-run mapping/routing against this device's coupling graph";
            }
            :: !findings
        | _ -> ())
      (Circuit.gates ctx.circuit);
    List.rev !findings

(* QL002: an executed coupling with no calibration entry means the
   variation-aware passes scored it blind (Profile falls back to the
   pessimistic ceiling). *)
let check_missing_calibration ctx =
  match ctx.device with
  | None | Some { Device.calibration = None; _ } -> []
  | Some ({ Device.calibration = Some cal; _ } as dev) ->
    let seen = Hashtbl.create 16 in
    let findings = ref [] in
    List.iteri
      (fun i g ->
        match Gate.qubits g with
        | [ a; b ]
          when Gate.is_two_qubit g
               && Device.coupled dev a b
               && Calibration.cnot_error_opt cal a b = None ->
          let key = (min a b, max a b) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            findings :=
              {
                rule = "QL002";
                severity = Warn;
                message =
                  Printf.sprintf
                    "coupling (%d, %d) is used by %s but has no calibration entry"
                    (fst key) (snd key) (gate_str g);
                gate_span = Some (i, i);
                fix_hint =
                  Some
                    "refresh the calibration snapshot or avoid the uncharacterized coupling";
              }
              :: !findings
          end
        | _ -> ())
      (Circuit.gates ctx.circuit);
    List.rev !findings

(* QL003: any gate touching a wire after its measurement - the classical
   outcome is already latched, so the gate is at best dead code and at
   worst a misordered program. *)
let check_gate_after_measure ctx =
  let n = Circuit.num_qubits ctx.circuit in
  let measured_at = Array.make n (-1) in
  let findings = ref [] in
  List.iteri
    (fun i g ->
      (match g with
      | Gate.Barrier -> ()
      | _ ->
        List.iter
          (fun q ->
            if measured_at.(q) >= 0 then
              findings :=
                {
                  rule = "QL003";
                  severity = Error;
                  message =
                    Printf.sprintf "%s touches qubit %d after its measurement at gate %d"
                      (gate_str g) q measured_at.(q);
                  gate_span = Some (measured_at.(q), i);
                  fix_hint = Some "move all measurements to the end of the circuit";
                }
                :: !findings)
          (Gate.qubits g));
      match g with Gate.Measure q -> if measured_at.(q) < 0 then measured_at.(q) <- i | _ -> ())
    (Circuit.gates ctx.circuit);
  List.rev !findings

(* QL004: allocated but untouched qubits usually mean the register was
   sized to the device rather than the problem. *)
let check_idle_qubit ctx =
  let used = Circuit.used_qubits ctx.circuit in
  let findings = ref [] in
  for q = Circuit.num_qubits ctx.circuit - 1 downto 0 do
    if not (List.mem q used) then
      findings :=
        {
          rule = "QL004";
          severity = Info;
          message = Printf.sprintf "qubit %d is allocated but never used" q;
          gate_span = None;
          fix_hint = Some "shrink the register to the qubits the program touches";
        }
        :: !findings
  done;
  !findings

(* QL005: adjacent pairs the Optimize pass would cancel or merge -
   evidence the circuit was emitted without (or after defeating) the
   peephole pass. *)
let check_redundant_adjacent ctx =
  let gates = Array.of_list (Circuit.gates ctx.circuit) in
  List.map
    (fun (i, j) ->
      {
        rule = "QL005";
        severity = Warn;
        message =
          Printf.sprintf "%s at gate %d cancels against or merges into %s at gate %d"
            (gate_str gates.(j)) j (gate_str gates.(i)) i;
        gate_span = Some (i, j);
        fix_hint = Some "run the Optimize pass (or stop re-emitting the inverse pair)";
      })
    (Lazy.force ctx.plain_redundancies)

(* QL006: a SWAP followed on both wires only by measurements permutes
   classical bits, not quantum state - it can be deleted and absorbed
   into readout relabeling. *)
let check_swap_sandwich ctx =
  let gates = Array.of_list (Circuit.gates ctx.circuit) in
  (* last.(q): the last gate on wire q other than Barrier and Measure;
     a SWAP is absorbable iff it is that gate on both its wires *)
  let last = Array.make (Circuit.num_qubits ctx.circuit) (-1) in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Barrier | Gate.Measure _ -> ()
      | g -> List.iter (fun q -> last.(q) <- i) (Gate.qubits g))
    gates;
  let findings = ref [] in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Swap (a, b) when last.(a) = i && last.(b) = i ->
        findings :=
          {
            rule = "QL006";
            severity = Warn;
            message =
              Printf.sprintf
                "swap(%d, %d) is followed only by measurements on both wires" a b;
            gate_span = Some (i, i);
            fix_hint =
              Some "delete the SWAP and relabel the measured bits (3 CNOTs saved)";
          }
          :: !findings
      | _ -> ())
    gates;
  List.rev !findings

(* QL007: decomposed critical path above the caller's depth budget. *)
let check_depth ctx =
  match ctx.max_depth with
  | None -> []
  | Some budget ->
    let m = Metrics.of_circuit ctx.circuit in
    if m.Metrics.depth <= budget then []
    else
      [
        {
          rule = "QL007";
          severity = Warn;
          message =
            Printf.sprintf "decomposed depth %d exceeds the budget of %d"
              m.Metrics.depth budget;
          gate_span = None;
          fix_hint =
            Some
              "raise the budget, lower the QAOA level, or pick a shallower compilation policy";
        };
      ]

(* QL008: ESP-style gate-error success product below the caller's
   threshold.  Uncalibrated couplings are charged the rate VIC's router
   charges them ({!Calibration.unrecorded_error}), so a stale snapshot
   degrades the estimate instead of raising. *)
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
        {
          rule = "QL008";
          severity = Warn;
          message =
            Printf.sprintf
              "estimated success probability %.3e is below the %.3e threshold" p
              threshold;
          gate_span = None;
          fix_hint =
            Some
              "use a variation-aware policy (VIC) or reduce the two-qubit gate count";
        };
      ]
  | _ -> []

(* QL009: a SWAP with zero commutation slack sits on the critical path -
   its 3 CNOTs stretch the whole circuit, where an off-path SWAP hides
   in another wire's shadow for free. *)
let check_critical_swap ctx =
  let df = Lazy.force ctx.dataflow in
  let dag = Dataflow.dag df in
  let findings = ref [] in
  for id = Commute.num_nodes dag - 1 downto 0 do
    match Commute.gate dag id with
    | Gate.Swap (a, b) when Dataflow.slack df id = 0 ->
      findings :=
        {
          rule = "QL009";
          severity = Warn;
          message =
            Printf.sprintf
              "swap(%d, %d) has zero commutation slack - its 3 CNOTs extend \
               the critical path"
              a b;
          gate_span = Some (id, id);
          fix_hint =
            Some
              "choose a route that keeps SWAPs off the critical path, or \
               absorb this one into the initial mapping";
        }
        :: !findings
    | _ -> ()
  done;
  !findings

(* QL010: two commuting CPHASEs that are consecutive on a shared qubit
   yet sit layers apart - the wire idles in between even though the DAG
   allows packing them closer. *)
let missed_packing_gap = 3

let check_missed_packing ctx =
  let df = Lazy.force ctx.dataflow in
  let dag = Dataflow.dag df in
  let layers = Layering.gate_layers ctx.circuit in
  let gates = Array.of_list (Circuit.gates ctx.circuit) in
  let n = Circuit.num_qubits ctx.circuit in
  let last_on = Array.make n (-1) in
  let findings = ref [] in
  Array.iteri
    (fun j g ->
      List.iter
        (fun q ->
          let i = last_on.(q) in
          (match (g, if i >= 0 then Some gates.(i) else None) with
          | Gate.Cphase _, Some (Gate.Cphase _) ->
            let gap = layers.(j) - layers.(i) - 1 in
            if gap >= missed_packing_gap && not (Commute.reachable dag i j)
            then
              findings :=
                {
                  rule = "QL010";
                  severity = Info;
                  message =
                    Printf.sprintf
                      "commuting %s (layer %d) and %s (layer %d) are \
                       consecutive on qubit %d but %d idle layers apart - \
                       packing missed"
                      (gate_str gates.(i)) layers.(i) (gate_str g) layers.(j)
                      q gap;
                  gate_span = Some (i, j);
                  fix_hint =
                    Some
                      "let a commutation-aware scheduler (IC/VIC layer \
                       formation) pull the later CPHASE earlier";
                }
                :: !findings
          | _ -> ());
          last_on.(q) <- j)
        (Gate.qubits g))
    gates;
  List.rev !findings

(* QL011: a measured qubit idling for several layers between its last
   gate and its measurement - the wire stays live (and decohering) for
   nothing; an ALAP-scheduled measurement would end it sooner. *)
let measure_delay_gap = 5

let check_measure_delay ctx =
  let layers = Layering.gate_layers ctx.circuit in
  let gates = Array.of_list (Circuit.gates ctx.circuit) in
  let n = Circuit.num_qubits ctx.circuit in
  let last_gate = Array.make n (-1) in
  let findings = ref [] in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Measure q ->
        if last_gate.(q) >= 0 then begin
          let prev = last_gate.(q) in
          let gap = layers.(i) - layers.(prev) - 1 in
          if gap >= measure_delay_gap then
            findings :=
              {
                rule = "QL011";
                severity = Info;
                message =
                  Printf.sprintf
                    "qubit %d idles %d layers between its last gate (%s, \
                     layer %d) and its measurement - live long past last use"
                    q gap (gate_str gates.(prev)) layers.(prev);
                gate_span = Some (prev, i);
                fix_hint =
                  Some
                    "schedule the measurement ALAP-adjacent to the last gate \
                     to cut idle decoherence";
              }
              :: !findings
        end;
        last_gate.(q) <- i
      | Gate.Barrier -> ()
      | _ -> List.iter (fun q -> last_gate.(q) <- i) (Gate.qubits g))
    gates;
  List.rev !findings

(* QL012: redundant pairs reachable only through commuting neighbours -
   plain adjacency (QL005) cannot see them; a commutation-aware rewrite
   (the strengthened Optimize pass) cancels or merges them. *)
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
  let full = Optimize.redundancies ~through_commuting:true ctx.circuit in
  let gates = Array.of_list (Circuit.gates ctx.circuit) in
  minus full (Lazy.force ctx.plain_redundancies)
  |> List.map (fun (i, j) ->
         {
           rule = "QL012";
           severity = Warn;
           message =
             Printf.sprintf
               "%s at gate %d cancels against or merges into %s at gate %d \
                after commuting past the %d intervening gate(s)"
               (gate_str gates.(j)) j (gate_str gates.(i)) i
               (j - i - 1);
           gate_span = Some (i, j);
           fix_hint =
             Some
               "run the Optimize pass (it reaches partners through commuting \
                neighbours)";
         })

(* QL013: depth more than a configurable factor above the commutation
   depth lower bound - most of the circuit's length is scheduling waste,
   not structure.  Computed on the decomposed circuit so the bound and
   the measured depth share a gate basis. *)
let check_depth_above_bound ctx =
  match ctx.lower_bound_factor with
  | None -> []
  | Some factor ->
    let s = Dataflow.analyze (Decompose.circuit ctx.circuit) in
    if
      s.Dataflow.lower_bound > 0
      && float_of_int s.Dataflow.measured_depth
         > factor *. float_of_int s.Dataflow.lower_bound
    then
      [
        {
          rule = "QL013";
          severity = Warn;
          message =
            Printf.sprintf
              "decomposed depth %d is %.2fx the commutation lower bound %d \
               (budget %.2fx)"
              s.Dataflow.measured_depth
              (float_of_int s.Dataflow.measured_depth
              /. float_of_int s.Dataflow.lower_bound)
              s.Dataflow.lower_bound factor;
          gate_span = None;
          fix_hint =
            Some
              "a commutation-aware policy (IC/VIC) or better routing could \
               close the gap to the bound";
        };
      ]
    else []

let builtin_rules =
  [
    {
      id = "QL001";
      name = "uncoupled-pair";
      severity = Error;
      roles = [ Compiled ];
      check = check_uncoupled;
    };
    {
      id = "QL002";
      name = "missing-calibration";
      severity = Warn;
      roles = [ Compiled ];
      check = check_missing_calibration;
    };
    {
      id = "QL003";
      name = "gate-after-measure";
      severity = Error;
      roles = [ Logical; Compiled ];
      check = check_gate_after_measure;
    };
    {
      id = "QL004";
      name = "idle-qubit";
      severity = Info;
      roles = [ Logical ];
      check = check_idle_qubit;
    };
    {
      id = "QL005";
      name = "redundant-adjacent";
      severity = Warn;
      roles = [ Logical; Compiled ];
      check = check_redundant_adjacent;
    };
    {
      id = "QL006";
      name = "swap-sandwich";
      severity = Warn;
      roles = [ Compiled ];
      check = check_swap_sandwich;
    };
    {
      id = "QL007";
      name = "depth-exceeded";
      severity = Warn;
      roles = [ Logical; Compiled ];
      check = check_depth;
    };
    {
      id = "QL008";
      name = "low-success-prob";
      severity = Warn;
      roles = [ Compiled ];
      check = check_success_prob;
    };
    {
      id = "QL009";
      name = "critical-swap";
      severity = Warn;
      roles = [ Compiled ];
      check = check_critical_swap;
    };
    {
      id = "QL010";
      name = "missed-packing";
      severity = Info;
      roles = [ Logical; Compiled ];
      check = check_missed_packing;
    };
    {
      id = "QL011";
      name = "measure-delay";
      severity = Info;
      roles = [ Logical; Compiled ];
      check = check_measure_delay;
    };
    {
      id = "QL012";
      name = "commuting-redundancy";
      severity = Warn;
      roles = [ Logical; Compiled ];
      check = check_commuting_redundancy;
    };
    {
      id = "QL013";
      name = "depth-above-bound";
      severity = Warn;
      roles = [ Logical; Compiled ];
      check = check_depth_above_bound;
    };
  ]

let run ctx =
  Trace.with_span "analysis.lint.run"
    ~attrs:
      [
        ("role", Trace.str (match ctx.role with Logical -> "logical" | Compiled -> "compiled"));
        ("gates", Trace.int (Circuit.length ctx.circuit));
        ("rules", Trace.int (List.length builtin_rules));
      ]
  @@ fun () ->
  let findings =
    List.concat_map
      (fun r -> if List.mem ctx.role r.roles then r.check ctx else [])
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

let finding_of_json j =
  let str key =
    match Json.member key j with
    | Some (Json.String s) -> Ok s
    | _ -> Result.Error (Printf.sprintf "finding is missing string field %S" key)
  in
  let ( let* ) = Result.bind in
  let* rule = str "rule" in
  let* sev_name = str "severity" in
  let* severity =
    match severity_of_string sev_name with
    | Some s -> Ok s
    | None -> Result.Error (Printf.sprintf "unknown severity %S" sev_name)
  in
  let* message = str "message" in
  let* gate_span =
    match Json.member "gate_span" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.List [ Json.Int i; Json.Int j ]) -> Ok (Some (i, j))
    | Some _ -> Result.Error "gate_span must be null or a two-int array"
  in
  let* fix_hint =
    match Json.member "fix_hint" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.String h) -> Ok (Some h)
    | Some _ -> Result.Error "fix_hint must be null or a string"
  in
  Ok { rule; severity; message; gate_span; fix_hint }

let report_of_json j =
  match Json.member "version" j with
  | Some (Json.Int 1) -> (
    match Json.member "findings" j with
    | Some (Json.List fs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
          match finding_of_json f with
          | Ok f -> go (f :: acc) rest
          | Error _ as e -> e)
      in
      go [] fs
    | _ -> Result.Error "report has no findings array")
  | None -> Result.Error "report has no version field"
  | Some _ -> Result.Error "unsupported report version"
