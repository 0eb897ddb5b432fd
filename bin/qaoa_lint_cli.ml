(* qaoa-lint: static circuit lints over the gate IR, no simulator.

   Examples:
     qaoa-lint circuit.qasm --device tokyo
     qaoa-lint circuit.qasm --max-depth 120 --deny WARN
     qaoa-lint --demo --json

   Exit status: 0 = clean, 2 = at least one ERROR finding, 1 = a finding
   at or above --deny (default ERROR, so WARN/INFO findings alone exit 0
   unless denied).  Malformed input exits 3 so it can never be confused
   with a lint verdict. *)

module Lint = Qaoa_analysis.Lint
module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Qasm = Qaoa_circuit.Qasm
module Topologies = Qaoa_hardware.Topologies
module Device = Qaoa_hardware.Device
module Json = Qaoa_obs.Json
open Cmdliner

let severity_conv =
  Arg.conv
    ( (fun s ->
        match Lint.severity_of_string s with
        | Some sev -> Ok sev
        | None -> Error (`Msg "expected INFO, WARN or ERROR")),
      fun ppf s -> Format.pp_print_string ppf (Lint.severity_name s) )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A deliberately dirty circuit exercising most rules on the chosen
   device: a duplicated H (QL005), an uncoupled CNOT (QL001), a SWAP
   followed only by measurements (QL006), and a gate after a measurement
   (QL003). *)
let demo_circuit device =
  let n = Device.num_qubits device in
  if n < 4 then invalid_arg "demo needs a device with at least 4 qubits";
  let uncoupled =
    (* find some uncoupled pair; fall back to (0, 1) on complete graphs *)
    let rec search a b =
      if a >= n then (0, 1)
      else if b >= n then search (a + 1) (a + 2)
      else if not (Device.coupled device a b) then (a, b)
      else search a (b + 1)
    in
    search 0 1
  in
  let a, b = uncoupled in
  Circuit.of_gates n
    [
      Gate.H 0;
      Gate.H 0;
      Gate.Cnot (a, b);
      Gate.Cphase (0, 1, 0.7);
      Gate.Swap (2, 3);
      Gate.Measure 0;
      Gate.X 0;
      Gate.Measure 1;
      Gate.Measure 2;
      Gate.Measure 3;
    ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let run () file demo device json max_depth min_success_prob lower_bound_factor
    deny dot dag_json =
  try
    (* with a device (the demo always has one) the circuit is judged as
       a compiled artifact on physical qubits; without one, as a
       logical circuit *)
    let circuit, device =
      match (demo, file) with
      | true, _ ->
        let d =
          match device with Some d -> d | None -> Topologies.ibmq_20_tokyo ()
        in
        (demo_circuit d, Some d)
      | false, Some path -> (Qasm.of_string (read_file path), device)
      | false, None ->
        failwith "expected a .qasm file argument or --demo (see --help)"
    in
    let ctx =
      Lint.context ?device ?max_depth ?min_success_prob ?lower_bound_factor
        circuit
    in
    let findings = Lint.run ctx in
    (* DAG exports reuse the lint rules' DAG; malformed input has already
       failed the parse, keeping the exit-3 contract before any write *)
    (if dot <> None || dag_json <> None then
       let df = Lint.dataflow ctx in
       Option.iter
         (fun path -> write_file path (Qaoa_analysis.Dataflow.to_dot df))
         dot;
       Option.iter
         (fun path ->
           write_file path
             (Json.to_string (Qaoa_analysis.Dataflow.to_json df) ^ "\n"))
         dag_json);
    if json then print_endline (Json.to_string (Lint.report_to_json findings))
    else print_string (Lint.to_text findings);
    Lint.exit_code ?deny findings
  with
  | Sys_error msg | Invalid_argument msg | Failure msg ->
    Printf.eprintf "qaoa-lint: %s\n" msg;
    3

let cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"OpenQASM 2.0 circuit to lint.")
  in
  let demo =
    Arg.(
      value & flag
      & info [ "demo" ]
          ~doc:
            "Lint a built-in deliberately dirty demo circuit instead of a \
             file (on --device, default tokyo).")
  in
  let device =
    Arg.(
      value
      & opt (some Qaoa_cli.device_conv) None
      & info [ "device" ] ~docv:"NAME"
          ~doc:
            "Judge the circuit as a compiled artifact on this device \
             (tokyo, melbourne, grid6x6, linear<N>, ring<N>); enables the \
             coupling and calibration rules.  Without it the circuit is \
             judged as a logical circuit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings report as JSON on stdout.")
  in
  let max_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Depth budget: warn when the decomposed depth exceeds N.")
  in
  let min_success_prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-success-prob" ] ~docv:"P"
          ~doc:
            "Warn when the estimated success probability (gate-error \
             product on the device calibration) falls below P.")
  in
  let lower_bound_factor =
    Arg.(
      value
      & opt (some float) None
      & info [ "lower-bound-factor" ] ~docv:"F"
          ~doc:
            "Warn (QL013) when the decomposed depth exceeds F times the \
             commutation depth lower bound.")
  in
  let deny =
    Arg.(
      value
      & opt (some severity_conv) None
      & info [ "deny" ] ~docv:"SEVERITY"
          ~doc:
            "Fail (exit 1) on findings at or above this severity; ERROR \
             findings always exit 2.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the commutation DAG as Graphviz to FILE, critical-path \
             nodes and edges highlighted.")
  in
  let dag_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "dag-json" ] ~docv:"FILE"
          ~doc:
            "Write the commutation DAG (nodes with ASAP/ALAP levels and \
             slack, edges, summary with the depth lower bound) as JSON to \
             FILE.")
  in
  let term =
    Term.(
      const run $ Qaoa_cli.setup $ file $ demo $ device $ json $ max_depth
      $ min_success_prob $ lower_bound_factor $ deny $ dot $ dag_json)
  in
  Cmd.v
    (Cmd.info "qaoa-lint" ~version:"1.0.0"
       ~doc:"Static lint rules for QAOA circuits (no simulation)")
    term

let () = exit (Cmd.eval' ~term_err:3 cmd)
