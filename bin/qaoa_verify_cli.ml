(* qaoa-verify: translation validation of the compilation pipeline.

   Two modes:
     qaoa-verify check --device tokyo --strategy ic --nodes 12 --kind er:0.4
       compile one instance (or --all-strategies) and validate the routed
       circuit against its logical source;
     qaoa-verify fuzz --cases 100 --seed 7
       seeded differential sweep over random problems x policies x
       topologies, with shrinking of any failing case.

   Exit status 0 = everything validated, 1 = discrepancies found. *)

module Compile = Qaoa_core.Compile
module Ansatz = Qaoa_core.Ansatz
module Check = Qaoa_verify.Check
module Fuzz = Qaoa_verify.Fuzz
module Differential = Qaoa_experiments.Differential
module Workload = Qaoa_experiments.Workload
module Rng = Qaoa_util.Rng
open Cmdliner

let kind_conv =
  Arg.conv
    ( Workload.kind_of_string,
      fun ppf k -> Format.pp_print_string ppf (Workload.kind_name k) )

(* ---------------- check ---------------- *)

let oracle_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "auto" -> Ok Check.Auto
        | "statevector" -> Ok Check.Statevector_only
        | "phase-poly" | "phase_poly" -> Ok Check.Phase_poly_only
        | _ -> Error (`Msg "expected auto | statevector | phase-poly")),
      fun ppf o ->
        Format.pp_print_string ppf
          (match o with
          | Check.Auto -> "auto"
          | Check.Statevector_only -> "statevector"
          | Check.Phase_poly_only -> "phase-poly") )

let run_check () topology strategies all nodes kind seed p max_semantic oracle =
  Qaoa_cli.guard ~tool:"qaoa-verify" @@ fun () ->
  let device = Differential.device_of_topology topology in
  let strategies =
    if all then Differential.default_strategies else strategies
  in
  let rng = Rng.create seed in
  let problem = List.hd (Workload.problems rng kind ~n:nodes ~count:1) in
  let params = { Ansatz.gammas = Array.make p 0.7; betas = Array.make p 0.4 } in
  let logical = Ansatz.circuit ~measure:true problem params in
  let options = { Compile.default_options with seed } in
  let check_options = { Check.max_semantic_qubits = max_semantic; oracle } in
  let failures = ref 0 in
  List.iter
    (fun strategy ->
      let r = Compile.compile ~options ~strategy device problem params in
      let report =
        Check.validate ~options:check_options ~device
          ~initial:r.Compile.initial_mapping ~final:r.Compile.final_mapping
          ~swap_count:r.Compile.swap_count ~logical r.Compile.circuit
      in
      if not (Check.ok report) then incr failures;
      Printf.printf "%-16s %s\n" (Compile.strategy_name strategy)
        (Check.report_to_string report))
    strategies;
  if !failures = 0 then 0 else 1

let check_cmd =
  let topology =
    Arg.(
      value & opt string "tokyo"
      & info [ "device" ] ~docv:"NAME"
          ~doc:"Target device (tokyo, melbourne, grid6x6, linear<N>, ring<N>).")
  in
  let strategies =
    Arg.(
      value
      & opt_all Qaoa_cli.strategy_conv [ Compile.Ic None ]
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:"Strategy to validate (repeatable).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all-strategies" ] ~doc:"Validate all seven policies.")
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
  let max_semantic =
    Arg.(
      value
      & opt int (Check.default_options ()).Check.max_semantic_qubits
      & info [ "max-semantic-qubits" ]
          ~doc:"Statevector-equivalence limit; larger registers fall back \
                to the phase-polynomial oracle (also settable via \
                QAOA_MAX_SEMANTIC_QUBITS).")
  in
  let oracle =
    Arg.(
      value
      & opt oracle_conv Check.Auto
      & info [ "oracle" ] ~docv:"ORACLE"
          ~doc:"Semantic oracle: auto (statevector within the qubit \
                limit, phase-poly past it), statevector, or phase-poly.")
  in
  let term =
    Term.(
      const run_check $ Qaoa_cli.setup $ topology $ strategies $ all $ nodes
      $ kind $ seed $ p
      $ max_semantic $ oracle)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate one compiled instance end-to-end")
    term

(* ---------------- fuzz ---------------- *)

let run_fuzz () cases_count seed topologies strategies max_nodes max_semantic =
  Qaoa_cli.guard ~tool:"qaoa-verify" @@ fun () ->
  let topologies =
    if topologies = [] then Differential.default_topologies else topologies
  in
  let strategies =
    if strategies = [] then Differential.default_strategies else strategies
  in
  let stats =
    Differential.fuzz ~seed ~count:cases_count ~topologies ~strategies
      ~max_nodes ~max_semantic_qubits:max_semantic ()
  in
  Format.printf "%a@."
    (Fuzz.pp_stats ~case_repro:Differential.repro
       ~case_name:Differential.case_name)
    stats;
  if stats.Fuzz.failures = [] then 0 else 1

let fuzz_cmd =
  let cases_count =
    Arg.(
      value & opt int 100
      & info [ "cases" ]
          ~doc:"Seeded graph/topology instances (each runs every strategy).")
  in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Sweep seed.") in
  let topologies =
    Arg.(
      value
      & opt_all string []
      & info [ "topology" ] ~docv:"NAME"
          ~doc:"Topology to sweep (repeatable; default the five bundled \
                ones).")
  in
  let strategies =
    Arg.(
      value
      & opt_all Qaoa_cli.strategy_conv []
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:"Strategy to sweep (repeatable; default all seven).")
  in
  let max_nodes =
    Arg.(value & opt int 12 & info [ "max-nodes" ] ~doc:"Largest graph size.")
  in
  let max_semantic =
    Arg.(
      value
      & opt int (Check.default_options ()).Check.max_semantic_qubits
      & info [ "max-semantic-qubits" ]
          ~doc:"Statevector-equivalence limit per case.")
  in
  let term =
    Term.(
      const run_fuzz $ Qaoa_cli.setup $ cases_count $ seed $ topologies
      $ strategies
      $ max_nodes $ max_semantic)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: problems x policies x topologies")
    term

let cmd =
  Cmd.group
    (Cmd.info "qaoa-verify" ~version:"1.0.0"
       ~doc:
         "Translation validation + differential fuzzing of the QAOA \
          compilation pipeline")
    [ check_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' ~term_err:2 cmd)
