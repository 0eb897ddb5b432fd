(* qaoa-compile: compile one QAOA-MaxCut instance for a target device
   with a chosen strategy and report circuit quality (optionally dumping
   OpenQASM).

   Examples:
     qaoa-compile --device tokyo --strategy ic --nodes 16 --kind regular:3
     qaoa-compile --device melbourne --strategy vic --nodes 12 \
                  --kind er:0.5 --seed 7 --qasm *)

module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Metrics = Qaoa_circuit.Metrics
module Topologies = Qaoa_hardware.Topologies
module Device = Qaoa_hardware.Device
module Workload = Qaoa_experiments.Workload
module Rng = Qaoa_util.Rng
open Cmdliner

let kind_conv =
  Arg.conv
    ( Workload.kind_of_string,
      fun ppf k -> Format.pp_print_string ppf (Workload.kind_name k) )

let run () device strategy nodes kind seed p gamma beta packing_limit qasm
    lint analyze =
  Qaoa_cli.guard ~tool:"qaoa-compile" @@ fun () ->
  let graph = Workload.graph (Rng.create seed) kind ~n:nodes in
  let problem = Problem.of_maxcut graph in
  let params =
    {
      Ansatz.gammas = Array.make p gamma;
      betas = Array.make p beta;
    }
  in
  let strategy =
    match (strategy, packing_limit) with
    | Compile.Ic _, Some l -> Compile.Ic (Some l)
    | Compile.Vic _, Some l -> Compile.Vic (Some l)
    | s, _ -> s
  in
  let options = { Compile.default_options with seed; lint; analyze } in
  let result = Compile.compile ~options ~strategy device problem params in
  Printf.printf "device:    %s (%d qubits)\n" device.Device.name
    (Device.num_qubits device);
  Printf.printf "problem:   %d-node MaxCut, %d edges, p=%d\n" nodes
    (Qaoa_graph.Graph.num_edges graph)
    p;
  Printf.printf "strategy:  %s (seed %d)\n" (Compile.strategy_name strategy) seed;
  Printf.printf "depth:     %d\n" result.Compile.metrics.Metrics.depth;
  Printf.printf "gates:     %d (%d CNOT)\n"
    result.Compile.metrics.Metrics.gate_count
    result.Compile.metrics.Metrics.two_qubit_count;
  Printf.printf "swaps:     %d\n" result.Compile.swap_count;
  Printf.printf "time:      %.4f s CPU (%.4f s wall)\n"
    result.Compile.compile_cpu_s result.Compile.compile_wall_s;
  Printf.printf "phases:    %s\n"
    (String.concat " | "
       (List.map
          (fun pt ->
            Printf.sprintf "%s %.2f ms (%.0f%%)" pt.Compile.phase
              (1e3 *. pt.Compile.wall_s)
              (100.0 *. pt.Compile.wall_s
              /. Float.max 1e-12 result.Compile.compile_wall_s))
          result.Compile.phase_times));
  (match result.Compile.static with
  | None -> ()
  | Some s ->
    let module D = Qaoa_analysis.Dataflow in
    (* "lower-bound:" on its own line: the CI gate awks it out and
       asserts it never exceeds the "depth:" line above *)
    Printf.printf "lower-bound: %d (critical path %d, busy bound %d)\n"
      s.D.lower_bound s.D.critical_path s.D.busy_bound;
    Printf.printf "static:    asap-depth %d | total-slack %d | live-pressure \
                   %d/%d\n"
      s.D.asap_depth s.D.total_slack s.D.live_pressure
      (Device.num_qubits device));
  (match device.Device.calibration with
  | Some _ ->
    Printf.printf "success:   %.3e\n" (Compile.success_probability device result)
  | None -> ());
  if qasm then begin
    print_endline "--- OpenQASM 2.0 ---";
    print_string (Qaoa_circuit.Qasm.to_string result.Compile.circuit)
  end;
  if lint then begin
    let module Lint = Qaoa_analysis.Lint in
    print_endline "--- lint ---";
    print_string (Lint.to_text result.Compile.lint_findings);
    (* only ERROR findings fail the compile invocation *)
    if Lint.count Lint.Error result.Compile.lint_findings > 0 then 1 else 0
  end
  else 0

let cmd =
  let device =
    Arg.(
      value
      & opt Qaoa_cli.device_conv (Topologies.ibmq_20_tokyo ())
      & info [ "device" ] ~docv:"NAME"
          ~doc:"Target device (tokyo, melbourne, grid6x6, linear<N>, ring<N>).")
  in
  let strategy =
    Arg.(
      value
      & opt Qaoa_cli.strategy_conv (Compile.Ic None)
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            ("Compilation strategy: "
            ^ String.concat ", " Compile.strategy_names
            ^ "."))
  in
  let nodes =
    Arg.(value & opt int 12 & info [ "nodes"; "n" ] ~doc:"Problem graph size.")
  in
  let kind =
    Arg.(
      value
      & opt kind_conv (Workload.Regular 3)
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Graph family: er:<p>, regular:<d> or ba:<m>.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let p = Arg.(value & opt int 1 & info [ "p" ] ~doc:"QAOA levels.") in
  let gamma =
    Arg.(value & opt float 0.7 & info [ "gamma" ] ~doc:"Cost-layer angle.")
  in
  let beta =
    Arg.(value & opt float 0.4 & info [ "beta" ] ~doc:"Mixer-layer angle.")
  in
  let packing_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "packing-limit" ] ~doc:"Max CPHASE gates per IC/VIC layer.")
  in
  let qasm =
    Arg.(value & flag & info [ "qasm" ] ~doc:"Print the compiled OpenQASM 2.0.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the static lint rules on the compiled circuit (recorded \
             as the lint phase); exit 1 if any ERROR finding is reported.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Run the commutation-DAG dataflow analysis on the compiled \
             circuit and report the policy-independent depth lower bound, \
             critical path, slack and live-range pressure.")
  in
  let term =
    Term.(
      const run $ Qaoa_cli.setup $ device $ strategy $ nodes $ kind $ seed $ p
      $ gamma $ beta $ packing_limit $ qasm $ lint $ analyze)
  in
  Cmd.v
    (Cmd.info "qaoa-compile" ~version:"1.0.0"
       ~doc:"Compile QAOA-MaxCut circuits with QAIM/IP/IC/VIC (MICRO'20)")
    term

let () = exit (Cmd.eval' ~term_err:2 cmd)
