(* qaoa-solve: end-to-end QAOA solving from the command line - generate
   or encode a problem, optimize parameters, compile, execute, decode.

   Examples:
     qaoa-solve --problem maxcut --nodes 10 --kind regular:3
     qaoa-solve --problem mis --nodes 8 --kind er:0.4 --device melbourne --noisy *)

module Problem = Qaoa_core.Problem
module Encodings = Qaoa_core.Encodings
module Solver = Qaoa_core.Solver
module Compile = Qaoa_core.Compile
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

let problem_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "maxcut" -> Ok `Maxcut
        | "mis" -> Ok `Mis
        | "vertexcover" | "vc" -> Ok `Vc
        | _ -> Error (`Msg "expected maxcut | mis | vertexcover")),
      fun ppf k ->
        Format.pp_print_string ppf
          (match k with `Maxcut -> "maxcut" | `Mis -> "mis" | `Vc -> "vertexcover") )

let run () problem_kind device strategy nodes kind seed p shots noisy =
  Qaoa_cli.guard ~tool:"qaoa-solve" @@ fun () ->
  let graph = Workload.graph (Rng.create seed) kind ~n:nodes in
  let problem, describe =
    match problem_kind with
    | `Maxcut -> (Problem.of_maxcut graph, "MaxCut")
    | `Mis -> (Encodings.max_independent_set graph, "Max Independent Set")
    | `Vc -> (Encodings.min_vertex_cover graph, "Min Vertex Cover")
  in
  let execution = if noisy then Solver.Noisy else Solver.Ideal in
  let o = Solver.solve ~strategy ~p ~shots ~execution ~seed device problem in
  Printf.printf "problem:    %s on a %d-node graph (%d edges)\n" describe nodes
    (Qaoa_graph.Graph.num_edges graph);
  Printf.printf "device:     %s, strategy %s, p=%d, %s execution\n"
    device.Device.name
    (Compile.strategy_name strategy)
    p
    (if noisy then "noisy" else "ideal");
  Printf.printf "compiled:   depth %d, %d gates, %d swaps\n"
    o.Solver.compiled.Compile.metrics.Metrics.depth
    o.Solver.compiled.Compile.metrics.Metrics.gate_count
    o.Solver.compiled.Compile.swap_count;
  Printf.printf "params:     gamma0=%.4f beta0=%.4f\n"
    o.Solver.params.Qaoa_core.Ansatz.gammas.(0)
    o.Solver.params.Qaoa_core.Ansatz.betas.(0);
  Printf.printf "best cost:  %.3f" o.Solver.best_cost;
  (match o.Solver.optimum with
  | Some opt -> Printf.printf " (optimum %.3f)" opt
  | None -> ());
  Printf.printf "\nmean cost:  %.3f (approximation ratio %.3f)\n"
    o.Solver.mean_cost o.Solver.approximation_ratio;
  (match problem_kind with
  | `Mis | `Vc ->
    let sel = Encodings.decode_selection problem o.Solver.best_bits in
    Printf.printf "selection:  {%s}\n"
      (String.concat ", " (List.map string_of_int sel))
  | `Maxcut -> ());
  0

let cmd =
  let problem =
    Arg.(
      value
      & opt problem_conv `Maxcut
      & info [ "problem" ] ~docv:"NAME" ~doc:"maxcut, mis or vertexcover.")
  in
  let device =
    Arg.(
      value
      & opt Qaoa_cli.device_conv (Topologies.ibmq_16_melbourne ())
      & info [ "device" ] ~docv:"NAME" ~doc:"Target device.")
  in
  let strategy =
    Arg.(
      value
      & opt Qaoa_cli.strategy_conv (Compile.Ic None)
      & info [ "strategy" ] ~docv:"NAME" ~doc:"Compilation strategy.")
  in
  let nodes = Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~doc:"Graph size.") in
  let kind =
    Arg.(
      value
      & opt kind_conv (Workload.Regular 3)
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Graph family: er:<p>, regular:<d> or ba:<m>.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let p = Arg.(value & opt int 1 & info [ "p" ] ~doc:"QAOA levels.") in
  let shots = Arg.(value & opt int 2048 & info [ "shots" ] ~doc:"Samples.") in
  let noisy =
    Arg.(
      value & flag
      & info [ "noisy" ] ~doc:"Execute with trajectory noise (needs calibration).")
  in
  Cmd.v
    (Cmd.info "qaoa-solve" ~version:"1.0.0"
       ~doc:"Solve a combinatorial problem end-to-end with QAOA")
    Term.(
      const run $ Qaoa_cli.setup $ problem $ device $ strategy $ nodes $ kind
      $ seed $ p $ shots $ noisy)

let () = exit (Cmd.eval' ~term_err:2 cmd)
