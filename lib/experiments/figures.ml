module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Analytic = Qaoa_core.Analytic
module Arg = Qaoa_core.Arg
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats

(* Instance counts per bar/point, scaled down from the paper's. *)
let count ~paper = function
  | Experiment.Full -> paper
  | Experiment.Default -> max 2 (paper / 6)
  | Experiment.Smoke -> 2

let er_kinds = List.map (fun p -> Workload.Erdos_renyi p) [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]
let regular_kinds = List.map (fun d -> Workload.Regular d) [ 3; 4; 5; 6; 7; 8 ]

let params = Workload.default_params

let depth a = a.Runner.mean_depth
let gates a = a.Runner.mean_gates
let time a = a.Runner.mean_time

(* One row per 20-node ER and regular family on tokyo: each metric of
   each of [nums] over [den]. *)
let family_rows ~journal ~scale ~seed ~prefix ~den ~nums metrics =
  let device = Topologies.ibmq_20_tokyo () in
  List.map
    (fun kind ->
      let name = Workload.kind_name kind in
      let problems =
        Workload.problems (Rng.create (seed + Hashtbl.hash name)) kind ~n:20
          ~count:(count ~paper:50 scale)
      in
      let res =
        Runner.run ~base_seed:seed ?journal ~experiment:(prefix ^ "/" ^ name)
          ~device ~strategies:(den :: nums) ~params problems
      in
      (name, Runner.ratios res ~den ~nums metrics))
    (er_kinds @ regular_kinds)

let mapping_columns =
  [ "GreedyV/NAIVE depth"; "QAIM/NAIVE depth"; "GreedyV/NAIVE gates"; "QAIM/NAIVE gates" ]

let mean_columns = [ "mean depth"; "mean gates"; "mean time (s)" ]

(* ------------------------------------------------------------------ *)
(* Fig. 7: initial-mapping comparison on 20-node graphs.              *)
(* ------------------------------------------------------------------ *)

let fig7 =
  Experiment.make Experiment.Figure "fig7"
    ~title:"QAIM vs GreedyV vs NAIVE, 20-node graphs, ibmq_20_tokyo"
    ~columns:mapping_columns
    ~notes:
      [
        "sparse ER(0.1): QAIM depth -12% vs NAIVE, -10.3% vs GreedyV; gates -20.5% / -16.5%";
        "3-regular: QAIM depth -15.3% / -12.6%; gates -21.3% / -16.9%";
        "dense graphs: all three approaches converge (ratios -> 1.0)";
      ]
  @@ fun ~scale ~journal ->
  family_rows ~journal ~scale ~seed:7000 ~prefix:"fig7" ~den:Compile.Naive
    ~nums:[ Compile.Greedy_v; Compile.Qaim ] [ depth; gates ]

(* ------------------------------------------------------------------ *)
(* Fig. 8: problem-size sweep (3-regular, n = 12..20).                *)
(* ------------------------------------------------------------------ *)

let fig8 =
  Experiment.make Experiment.Figure "fig8"
    ~title:"mapping quality vs problem size, 3-regular, ibmq_20_tokyo"
    ~columns:mapping_columns
    ~notes:
      [
        "n=12: QAIM depth -21.8% and gates -26.8% vs NAIVE; -12.2% / -17.2% vs GreedyV";
        "advantage shrinks as the problem fills the 20-qubit device";
      ]
  @@ fun ~scale ~journal ->
  let seed = 8000 in
  let device = Topologies.ibmq_20_tokyo () in
  let c = count ~paper:20 scale in
  let nums = [ Compile.Greedy_v; Compile.Qaim ] in
  List.map
    (fun n ->
      let rng = Rng.create (seed + n) in
      let problems = Workload.problems rng (Workload.Regular 3) ~n ~count:c in
      let res =
        Runner.run ~base_seed:seed ?journal
          ~experiment:(Printf.sprintf "fig8/n=%d" n) ~device
          ~strategies:(Compile.Naive :: nums) ~params problems
      in
      ( Printf.sprintf "n=%d" n,
        Runner.ratios res ~den:Compile.Naive ~nums [ depth; gates ] ))
    [ 12; 14; 16; 18; 20 ]

(* ------------------------------------------------------------------ *)
(* Fig. 9: IP and IC vs QAIM-only.                                    *)
(* ------------------------------------------------------------------ *)

let fig9 =
  Experiment.make Experiment.Figure "fig9"
    ~title:"IP(+QAIM) and IC(+QAIM) vs QAIM-only, 20-node graphs, tokyo"
    ~columns:
      [
        "IP/QAIM depth"; "IC/QAIM depth"; "IP/QAIM gates"; "IC/QAIM gates";
        "IP/QAIM time"; "IC/QAIM time";
      ]
    ~notes:
      [
        "IC depth -39.3% vs QAIM at 3-regular, down to -68% at 8-regular";
        "IC depth ~13.2% below IP on average; IC gates -16.7% vs both QAIM and IP";
        "IP gates ~ QAIM gates; IP compiles ~37% faster than IC";
      ]
  @@ fun ~scale ~journal ->
  family_rows ~journal ~scale ~seed:9000 ~prefix:"fig9" ~den:Compile.Qaim
    ~nums:[ Compile.Ip; Compile.Ic None ] [ depth; gates; time ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: VIC vs IC success probability on calibrated melbourne.    *)
(* ------------------------------------------------------------------ *)

let fig10 =
  Experiment.make Experiment.Figure "fig10"
    ~title:"VIC vs IC success probability, ibmq_16_melbourne (Fig.10a calibration)"
    ~columns:[ "VIC/IC success ratio" ]
    ~notes:
      [
        "ER(0.5): VIC ~80% higher success probability on average (157% at n=15)";
        "6-regular: ~45.3% higher on average (72.2% at n=14); smaller because";
        "heavily packed layers leave fewer qubit-pair choices";
      ]
  @@ fun ~scale ~journal ->
  let seed = 10000 in
  let device = Topologies.ibmq_16_melbourne () in
  let c = count ~paper:20 scale in
  List.concat_map
    (fun kind ->
      List.map
        (fun n ->
          let rng = Rng.create (seed + n + Hashtbl.hash (Workload.kind_name kind)) in
          let problems = Workload.problems rng kind ~n ~count:c in
          let res =
            Runner.run ~base_seed:seed ?journal
              ~experiment:
                (Printf.sprintf "fig10/%s/n=%d" (Workload.kind_name kind) n)
              ~device
              ~strategies:[ Compile.Ic None; Compile.Vic None ]
              ~params problems
          in
          let succ s =
            match (Runner.find res s).Runner.mean_success with
            | Some x -> x
            | None -> Float.nan
          in
          ( Printf.sprintf "%s n=%d" (Workload.kind_name kind) n,
            [ Stats.ratio (succ (Compile.Vic None)) (succ (Compile.Ic None)) ] ))
        [ 13; 14; 15 ])
    [ Workload.Erdos_renyi 0.5; Workload.Regular 6 ]

(* ------------------------------------------------------------------ *)
(* Fig. 11(a): normalized summary over 20-node instances.             *)
(* ------------------------------------------------------------------ *)

let fig11a =
  Experiment.make Experiment.Figure "fig11a"
    ~title:"summary normalized by NAIVE (20-node ER + regular, tokyo)"
    ~columns:[ "depth/NAIVE"; "gates/NAIVE"; "time/NAIVE" ]
    ~notes:
      [
        "paper table: QAIM 0.95/0.94/~1; IP 0.54/0.92/0.55; IC 0.47/0.77/0.85;";
        "VIC 0.48/0.77/0.86  (depth/gates/time normalized by NAIVE)";
      ]
  @@ fun ~scale ~journal ->
  let seed = 11000 in
  let rng = Rng.create seed in
  let device =
    (* VIC needs calibration: random N(1e-2, 0.5e-2) as in the paper *)
    Device.with_random_calibration rng (Topologies.ibmq_20_tokyo ())
  in
  let c = count ~paper:50 scale in
  let problems =
    List.concat_map
      (fun kind ->
        Workload.problems
          (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
          kind ~n:20 ~count:c)
      (er_kinds @ regular_kinds)
  in
  let strategies =
    [ Compile.Naive; Compile.Qaim; Compile.Ip; Compile.Ic None; Compile.Vic None ]
  in
  let res =
    Runner.run ~base_seed:seed ?journal ~experiment:"fig11a" ~device
      ~strategies ~params problems
  in
  List.map
    (fun a ->
      ( Compile.strategy_name a.Runner.strategy,
        Runner.ratios res ~den:Compile.Naive ~nums:[ a.Runner.strategy ]
          [ depth; gates; time ] ))
    res

(* ------------------------------------------------------------------ *)
(* Fig. 11(b): ARG on (simulated) hardware.                           *)
(* ------------------------------------------------------------------ *)

let fig11b =
  Experiment.make Experiment.Figure "fig11b"
    ~title:"ARG of QAIM/IP/IC/VIC, 12-node instances, melbourne + trajectory noise"
    ~columns:[ "mean ARG (%)" ]
    ~notes:
      [
        "paper (hardware runs): QAIM 20.89, IP 18.29, IC 16.73, VIC 15.50";
        "(IC 8.5% below IP, VIC 7.4% below IC, VIC 25.8% below QAIM)";
      ]
  @@ fun ~scale ~journal ->
  let seed = 11500 in
  let device = Topologies.ibmq_16_melbourne () in
  let c = count ~paper:20 scale in
  let shots =
    match scale with
    | Experiment.Full -> 8192
    | Experiment.Default -> 2048
    | Experiment.Smoke -> 512
  in
  let strategies =
    [ Compile.Qaim; Compile.Ip; Compile.Ic None; Compile.Vic None ]
  in
  let problems =
    List.concat_map
      (fun kind ->
        Workload.problems
          (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
          kind ~n:12 ~count:c)
      [ Workload.Erdos_renyi 0.5; Workload.Regular 6 ]
  in
  (* p=1 parameters found analytically per instance (Sec. V.A protocol);
     lazy so a fully journaled resume skips the optimization entirely *)
  let with_params =
    lazy
      (List.map
         (fun problem ->
           let g = Problem.interaction_graph problem in
           let prms, _ =
             Qaoa_core.Optimizer.optimize_p1 ~grid:24 (Analytic.expectation g)
           in
           (problem, prms))
         problems)
  in
  List.map
    (fun strategy ->
      let args =
        List.filter_map Fun.id
          (List.mapi
             (fun i _problem ->
               Sweep.value ?journal
                 ~key:
                   (Printf.sprintf "fig11b/%s/i%d/s%d"
                      (Compile.strategy_name strategy)
                      i (seed + i))
                 (fun () ->
                   let problem, prms =
                     List.nth (Lazy.force with_params) i
                   in
                   let options =
                     { Compile.default_options with seed = seed + i }
                   in
                   let r =
                     Compile.compile ~options ~strategy device problem prms
                   in
                   let rng = Rng.create (seed + i) in
                   (Arg.evaluate ~shots rng device problem prms r)
                     .Arg.arg_percent))
             problems)
      in
      (Compile.strategy_name strategy, [ Stats.mean args ]))
    strategies

(* ------------------------------------------------------------------ *)
(* Fig. 12: packing-limit sweep on the 36-qubit grid.                 *)
(* ------------------------------------------------------------------ *)

let fig12 =
  Experiment.make Experiment.Figure "fig12"
    ~title:"IC(+QAIM) vs packing limit, 36-node graphs, 6x6 grid"
    ~columns:mean_columns
    ~notes:
      [
        "depth falls with the limit, bottoms out near limit ~11, then degrades";
        "gates grow slowly up to limit ~11, then sharply; time falls monotonically";
        "paper's scaling constants: depth/283, gates/1428, time/9.48 s";
      ]
  @@ fun ~scale ~journal ->
  let seed = 12000 in
  let device = Topologies.grid_6x6 () in
  let c = count ~paper:20 scale in
  let limits =
    match scale with
    | Experiment.Full -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    | Experiment.Default -> [ 1; 3; 5; 7; 9; 11; 13; 15 ]
    | Experiment.Smoke -> [ 3; 11 ]
  in
  let problems =
    List.concat_map
      (fun kind ->
        Workload.problems
          (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
          kind ~n:36 ~count:c)
      [ Workload.Erdos_renyi 0.5; Workload.Regular 15 ]
  in
  List.map
    (fun limit ->
      let res =
        Runner.run ~base_seed:seed ?journal
          ~experiment:(Printf.sprintf "fig12/limit=%d" limit) ~device
          ~strategies:[ Compile.Ic (Some limit) ]
          ~params problems
      in
      let a = List.hd res in
      (Printf.sprintf "limit=%d" limit, [ depth a; gates a; time a ]))
    limits

(* ------------------------------------------------------------------ *)
(* Sec. VI: ring-8 comparison against the temporal planner [46].      *)
(* ------------------------------------------------------------------ *)

let ring8 =
  Experiment.make Experiment.Figure "ring8"
    ~title:"IC(+QAIM) on 8-node/8-edge ER instances, 8-qubit ring"
    ~columns:mean_columns
    ~notes:
      [
        "reference [46]: temporal planner needed ~70 s for 8-qubit circuits;";
        "the paper reports IC -8.51% depth and -12.99% gates vs [46] on this workload";
      ]
  @@ fun ~scale ~journal ->
  let seed = 4600 in
  let device = Topologies.ring 8 in
  let c = count ~paper:50 scale in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Gnm 8) ~n:8 ~count:c
  in
  let res =
    Runner.run ~base_seed:seed ?journal ~experiment:"ring8" ~device
      ~strategies:[ Compile.Ic None ] ~params problems
  in
  let a = List.hd res in
  [ ("IC(+QAIM)", [ depth a; gates a; time a ]) ]

let all = [ fig7; fig8; fig9; fig10; fig11a; fig11b; fig12; ring8 ]
