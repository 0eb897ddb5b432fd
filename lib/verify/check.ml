module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Layering = Qaoa_circuit.Layering
module Device = Qaoa_hardware.Device
module Mapping = Qaoa_backend.Mapping
module Statevector = Qaoa_sim.Statevector
module Phase_poly = Qaoa_analysis.Phase_poly
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type issue =
  | Uncoupled_pair of { gate_index : int; gate : Gate.t }
  | Unallocated_operand of { gate_index : int; gate : Gate.t; physical : int }
  | Unexpected_gate of { gate_index : int; gate : Gate.t; logical : Gate.t }
  | Missing_gates of { gates : Gate.t list }
  | Final_mapping_mismatch of { logical : int; expected : int; actual : int }
  | Swap_count_mismatch of { recorded : int; counted : int }
  | Measurement_missing of { logical : int }
  | Measured_wire_disturbed of {
      gate_index : int;
      gate : Gate.t;
      physical : int;
    }
  | Readout_mismatch of { logical : int; measured_at : int; final : int }
  | State_mismatch of {
      layer : int option;
      gate_index : int option;
      distance : float;
    }
  | Phase_poly_mismatch of { segment : int; detail : string }

type semantic_method = Statevector | Phase_polynomial

type semantic_status =
  | Checked of { num_qubits : int; method_ : semantic_method }
  | Skipped of string

type report = { issues : issue list; semantic : semantic_status }

let default_max_semantic_qubits = 12

type oracle = Auto | Statevector_only | Phase_poly_only

type options = { max_semantic_qubits : int; oracle : oracle }

(* Phase-aligned state-distance bound (statevector) and per-term angular
   tolerance (phase polynomial). *)
let eps = 1e-6

let default_options () =
  let max_semantic_qubits =
    match Sys.getenv_opt "QAOA_MAX_SEMANTIC_QUBITS" with
    | None -> default_max_semantic_qubits
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> default_max_semantic_qubits)
  in
  { max_semantic_qubits; oracle = Auto }

let issue_to_string = function
  | Uncoupled_pair { gate_index; gate } ->
    Format.asprintf "gate %d: %a acts on an uncoupled physical pair"
      gate_index Gate.pp gate
  | Unallocated_operand { gate_index; gate; physical } ->
    Format.asprintf
      "gate %d: %a touches physical qubit %d, which hosts no logical qubit"
      gate_index Gate.pp gate physical
  | Unexpected_gate { gate_index; gate; logical } ->
    Format.asprintf
      "gate %d: %a (logical pre-image %a) is not a gate the logical \
       circuit owes"
      gate_index Gate.pp gate Gate.pp logical
  | Missing_gates { gates } ->
    Format.asprintf "%d logical gate(s) never emitted, e.g. %a"
      (List.length gates) Gate.pp (List.hd gates)
  | Final_mapping_mismatch { logical; expected; actual } ->
    Printf.sprintf
      "final mapping: logical %d recorded on physical %d but SWAP replay \
       puts it on %d"
      logical expected actual
  | Swap_count_mismatch { recorded; counted } ->
    Printf.sprintf "swap count: result records %d, circuit contains %d"
      recorded counted
  | Measurement_missing { logical } ->
    Printf.sprintf "logical qubit %d is never measured" logical
  | Measured_wire_disturbed { gate_index; gate; physical } ->
    Format.asprintf "gate %d: %a acts on physical qubit %d after its \
                     measurement"
      gate_index Gate.pp gate physical
  | Readout_mismatch { logical; measured_at; final } ->
    Printf.sprintf
      "readout: logical %d measured on physical %d but final mapping says \
       %d"
      logical measured_at final
  | State_mismatch { layer; gate_index; distance } -> (
    match (layer, gate_index) with
    | Some l, Some i ->
      Printf.sprintf
        "state diverges at logical layer %d (completed by gate %d), \
         phase-aligned distance %.3e"
        l i distance
    | _ ->
      Printf.sprintf "final state differs, phase-aligned distance %.3e"
        distance)
  | Phase_poly_mismatch { segment; detail } ->
    Printf.sprintf "phase polynomials diverge at segment %d: %s" segment
      detail

let semantic_method_name = function
  | Statevector -> "statevector"
  | Phase_polynomial -> "phase polynomial"

let report_to_string r =
  let sem =
    match r.semantic with
    | Checked { num_qubits; method_ } ->
      Printf.sprintf "semantic: checked on %d qubits (%s)" num_qubits
        (semantic_method_name method_)
    | Skipped reason -> "semantic: skipped (" ^ reason ^ ")"
  in
  match r.issues with
  | [] -> "ok; " ^ sem
  | issues ->
    Printf.sprintf "%d issue(s); %s\n  %s" (List.length issues) sem
      (String.concat "\n  " (List.map issue_to_string issues))

let ok r = r.issues = []

(* ---------------------------------------------------------------- *)
(* Structural replay                                                *)
(* ---------------------------------------------------------------- *)

type replay = {
  issues : issue list;  (** in gate order *)
  preimages : (int * Gate.t * Gate.t) list;
      (** (compiled index, physical gate, logical pre-image) for every
          non-SWAP, non-Barrier gate whose operands were all allocated *)
  replayed_final : Mapping.t;
  counted_swaps : int;
  measured : (int * int) list;  (** (logical, wire at measurement time) *)
}

let structural_replay device initial compiled =
  let n_phys = Device.num_qubits device in
  let issues = ref [] in
  let emit i = issues := i :: !issues in
  let mapping = ref initial in
  let preimages = ref [] in
  let counted_swaps = ref 0 in
  let measured = ref [] in
  let measured_wires = Hashtbl.create 8 in
  let in_range w = w >= 0 && w < n_phys in
  let allocated w = in_range w && Mapping.logical_at !mapping w <> None in
  let check_disturbance idx g =
    List.iter
      (fun w ->
        if Hashtbl.mem measured_wires w then
          emit (Measured_wire_disturbed { gate_index = idx; gate = g; physical = w }))
      (Gate.qubits g)
  in
  let check_coupled idx g =
    match Gate.qubits g with
    | [ a; b ] when in_range a && in_range b ->
      if not (Device.coupled device a b) then
        emit (Uncoupled_pair { gate_index = idx; gate = g })
    | _ -> emit (Uncoupled_pair { gate_index = idx; gate = g })
  in
  (* A gate with fully allocated operands gets a logical pre-image. *)
  let record_preimage idx g =
    let wires = Gate.qubits g in
    let bad = List.filter (fun w -> not (allocated w)) wires in
    match bad with
    | w :: _ ->
      emit (Unallocated_operand { gate_index = idx; gate = g; physical = w })
    | [] ->
      let pre =
        Gate.map_qubits
          (fun w -> Option.get (Mapping.logical_at !mapping w))
          g
      in
      preimages := (idx, g, pre) :: !preimages
  in
  List.iteri
    (fun idx g ->
      match g with
      | Gate.Barrier -> ()
      | Gate.Swap (p, q) ->
        check_coupled idx g;
        check_disturbance idx g;
        if in_range p && in_range q && p <> q then begin
          mapping := Mapping.swap_physical !mapping p q;
          incr counted_swaps
        end
      | Gate.Cnot _ | Gate.Cphase _ ->
        check_coupled idx g;
        check_disturbance idx g;
        record_preimage idx g
      | Gate.Measure p ->
        check_disturbance idx g;
        record_preimage idx g;
        (match Mapping.logical_at !mapping p with
        | Some l ->
          measured := (l, p) :: !measured;
          Hashtbl.replace measured_wires p ()
        | None -> ())
      | _ ->
        (* one-qubit unitaries *)
        check_disturbance idx g;
        record_preimage idx g)
    (Circuit.gates compiled);
  {
    issues = List.rev !issues;
    preimages = List.rev !preimages;
    replayed_final = !mapping;
    counted_swaps = !counted_swaps;
    measured = List.rev !measured;
  }

(* ---------------------------------------------------------------- *)
(* Gate accounting: multiset of logical pre-images vs logical gates *)
(* ---------------------------------------------------------------- *)

let accounting logical replay =
  let bag = Hashtbl.create 64 in
  List.iter
    (fun g ->
      match g with
      | Gate.Barrier -> ()
      | _ ->
        Hashtbl.replace bag g
          (1 + Option.value ~default:0 (Hashtbl.find_opt bag g)))
    (Circuit.gates logical);
  let issues = ref [] in
  List.iter
    (fun (idx, phys_gate, pre) ->
      match Hashtbl.find_opt bag pre with
      | Some c when c > 1 -> Hashtbl.replace bag pre (c - 1)
      | Some _ -> Hashtbl.remove bag pre
      | None ->
        issues :=
          Unexpected_gate { gate_index = idx; gate = phys_gate; logical = pre }
          :: !issues)
    replay.preimages;
  let leftover =
    Hashtbl.fold
      (fun g c acc -> List.rev_append (List.init c (fun _ -> g)) acc)
      bag []
  in
  let issues = List.rev !issues in
  if leftover = [] then issues
  else issues @ [ Missing_gates { gates = leftover } ]

(* ---------------------------------------------------------------- *)
(* Semantic replay                                                  *)
(* ---------------------------------------------------------------- *)

(* Re-simulate the logical pre-images in compiled emission order and
   compare against the logical circuit's own state.  Because compiled
   gates only reorder commuting operations, both runs must agree at every
   "clean" boundary - a point where the emitted gates are exactly the
   gates of a prefix of the logical circuit's ASAP layers - and at the
   end.  The first divergent clean boundary names the offending layer. *)
let semantic logical replay =
  let n = Circuit.num_qubits logical in
  let layers = Array.of_list (Layering.layers logical) in
  let num_layers = Array.length layers in
  (* layer attribution bag: gate value -> ascending layer indices *)
  let layer_bag = Hashtbl.create 64 in
  Array.iteri
    (fun li layer ->
      List.iter
        (fun g ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt layer_bag g) in
          Hashtbl.replace layer_bag g (prev @ [ li ]))
        layer)
    layers;
  let remaining = Array.map List.length layers in
  let completed = ref (-1) in
  let max_touched = ref (-1) in
  let advance_completed () =
    while
      !completed + 1 < num_layers && remaining.(!completed + 1) = 0
    do
      incr completed
    done
  in
  advance_completed ();
  let b = Statevector.create n in
  let a = Statevector.create n in
  let ref_applied = ref 0 in
  let advance_reference upto =
    while !ref_applied <= upto do
      List.iter (Statevector.apply_gate a) layers.(!ref_applied);
      incr ref_applied
    done
  in
  let mismatch = ref None in
  List.iter
    (fun (idx, _phys, pre) ->
      if !mismatch = None then begin
        Statevector.apply_gate b pre;
        (match Hashtbl.find_opt layer_bag pre with
        | Some (li :: rest) ->
          Hashtbl.replace layer_bag pre rest;
          remaining.(li) <- remaining.(li) - 1;
          if li > !max_touched then max_touched := li
        | _ -> ());
        let before = !completed in
        advance_completed ();
        if !completed > before && !max_touched <= !completed then begin
          advance_reference !completed;
          let d = Statevector.distance_up_to_global_phase a b in
          if d > eps then
            mismatch :=
              Some
                (State_mismatch
                   {
                     layer = Some !completed;
                     gate_index = Some idx;
                     distance = d;
                   })
        end
      end)
    replay.preimages;
  match !mismatch with
  | Some issue -> [ issue ]
  | None ->
    advance_reference (num_layers - 1);
    let d = Statevector.distance_up_to_global_phase a b in
    if d > eps then
      [ State_mismatch { layer = None; gate_index = None; distance = d } ]
    else []

(* The any-size oracle: compare the logical circuit against the circuit
   of logical pre-images (in emission order) via their phase-polynomial
   canonical forms.  Exact on the linear fragment; [Error reason] when
   the non-linear skeletons do not line up. *)
let phase_poly_semantic logical replay =
  let n = Circuit.num_qubits logical in
  let preimage_circuit =
    Circuit.of_gates n (List.map (fun (_, _, pre) -> pre) replay.preimages)
  in
  match Phase_poly.equal_up_to_global_phase ~eps logical preimage_circuit with
  | Phase_poly.Equivalent -> Ok []
  | Phase_poly.Inequivalent { segment; detail } ->
    Ok [ Phase_poly_mismatch { segment; detail } ]
  | Phase_poly.Inconclusive reason -> Error reason

(* ---------------------------------------------------------------- *)
(* Entry point                                                      *)
(* ---------------------------------------------------------------- *)

let validate ?options ~device ~initial ~final ?swap_count ~logical compiled =
  let options =
    match options with Some o -> o | None -> default_options ()
  in
  let { max_semantic_qubits; oracle } = options in
  let n_logical = Circuit.num_qubits logical in
  Trace.with_span "verify.check.validate"
    ~attrs:
      [
        ("num_logical", Trace.int n_logical);
        ("compiled_gates", Trace.int (Circuit.length compiled));
        ("device", Trace.str device.Device.name);
      ]
  @@ fun () ->
  Metrics_registry.incr "verify.checks";
  let replay = structural_replay device initial compiled in
  let mapping_issues =
    List.concat_map
      (fun l ->
        let expected = Mapping.phys final l in
        let actual = Mapping.phys replay.replayed_final l in
        if expected <> actual then
          [ Final_mapping_mismatch { logical = l; expected; actual } ]
        else [])
      (List.init n_logical Fun.id)
  in
  let swap_issues =
    match swap_count with
    | Some recorded when recorded <> replay.counted_swaps ->
      [ Swap_count_mismatch { recorded; counted = replay.counted_swaps } ]
    | _ -> []
  in
  let measure_issues =
    let expected_measures =
      List.filter_map
        (function Gate.Measure l -> Some l | _ -> None)
        (Circuit.gates logical)
    in
    List.concat_map
      (fun l ->
        match List.assoc_opt l replay.measured with
        | None -> [ Measurement_missing { logical = l } ]
        | Some wire ->
          let final_wire = Mapping.phys final l in
          if wire <> final_wire then
            [
              Readout_mismatch
                { logical = l; measured_at = wire; final = final_wire };
            ]
          else [])
      expected_measures
  in
  let accounting_issues = accounting logical replay in
  let structural_issues =
    replay.issues @ mapping_issues @ swap_issues @ measure_issues
    @ accounting_issues
  in
  let statevector_check () =
    Trace.with_span "verify.check.semantic" @@ fun () ->
    ( semantic logical replay,
      Checked { num_qubits = n_logical; method_ = Statevector } )
  in
  let phase_poly_check ~skip_prefix =
    match phase_poly_semantic logical replay with
    | Ok issues ->
      (issues, Checked { num_qubits = n_logical; method_ = Phase_polynomial })
    | Error reason ->
      ( [],
        Skipped
          (Printf.sprintf
             "%sphase-polynomial oracle inconclusive: non-linear \
              segmentation fallback failed (%s)"
             skip_prefix reason) )
  in
  let semantic_issues, semantic_status =
    if structural_issues <> [] then
      ([], Skipped "structural issues present")
    else
      match oracle with
      | Phase_poly_only -> phase_poly_check ~skip_prefix:""
      | Statevector_only ->
        if n_logical <= max_semantic_qubits then statevector_check ()
        else
          ( [],
            Skipped
              (Printf.sprintf
                 "%d qubits exceeds the %d-qubit statevector limit and the \
                  phase-polynomial oracle is disabled"
                 n_logical max_semantic_qubits) )
      | Auto ->
        if n_logical <= max_semantic_qubits then statevector_check ()
        else
          phase_poly_check
            ~skip_prefix:
              (Printf.sprintf
                 "%d qubits exceeds the %d-qubit statevector limit; "
                 n_logical max_semantic_qubits)
  in
  (match semantic_status with
  | Checked { method_ = Statevector; _ } ->
    Metrics_registry.incr "verify.semantic_checked"
  | Checked { method_ = Phase_polynomial; _ } ->
    Metrics_registry.incr "verify.semantic_checked";
    Metrics_registry.incr "verify.semantic_phase_poly"
  | Skipped _ -> Metrics_registry.incr "verify.semantic_skipped");
  let issues = structural_issues @ semantic_issues in
  Metrics_registry.incr "verify.issues" ~by:(List.length issues);
  { issues; semantic = semantic_status }

exception Verification_failed of report

let () =
  Printexc.register_printer (function
    | Verification_failed r ->
      Some ("Qaoa_verify.Check.Verification_failed: " ^ report_to_string r)
    | _ -> None)

let validate_exn ?options ~device ~initial ~final ?swap_count ~logical
    compiled =
  let r =
    validate ?options ~device ~initial ~final ?swap_count ~logical compiled
  in
  if not (ok r) then raise (Verification_failed r)
