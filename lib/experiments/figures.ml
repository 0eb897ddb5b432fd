module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Analytic = Qaoa_core.Analytic
module Arg = Qaoa_core.Arg
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats
module Table = Qaoa_util.Table

type scale = Smoke | Default | Full

let scale_of_string s =
  match String.lowercase_ascii s with
  | "smoke" -> Some Smoke
  | "default" -> Some Default
  | "full" -> Some Full
  | _ -> None

let scale_name = function Smoke -> "smoke" | Default -> "default" | Full -> "full"

let scale_from_env () =
  match Sys.getenv_opt "QAOA_BENCH_SCALE" with
  | Some s -> Option.value ~default:Default (scale_of_string s)
  | None -> Default

(* Instance counts per bar/point, scaled down from the paper's. *)
let count ~paper = function
  | Full -> paper
  | Default -> max 2 (paper / 6)
  | Smoke -> 2

type row = string * float list

let header ~quiet id title scale =
  if not quiet then
    Printf.printf "\n=== %s: %s  [scale=%s] ===\n" id title (scale_name scale)

let print_rows ~quiet columns rows =
  if not quiet then begin
    let t = Table.create ("workload" :: columns) in
    List.iter (fun (label, values) -> Table.add_float_row t label values) rows;
    Table.print t
  end

let note ~quiet lines =
  if not quiet then
    List.iter (fun l -> Printf.printf "  paper: %s\n" l) lines

let er_kinds = List.map (fun p -> Workload.Erdos_renyi p) [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]
let regular_kinds = List.map (fun d -> Workload.Regular d) [ 3; 4; 5; 6; 7; 8 ]

let params = Workload.default_params

(* ------------------------------------------------------------------ *)
(* Fig. 7: initial-mapping comparison on 20-node graphs.              *)
(* ------------------------------------------------------------------ *)

let mapping_comparison_rows ?journal ~experiment ~scale ~seed ~n ~kinds
    ~paper_count () =
  let device = Topologies.ibmq_20_tokyo () in
  let c = count ~paper:paper_count scale in
  List.map
    (fun kind ->
      let rng = Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)) in
      let problems = Workload.problems rng kind ~n ~count:c in
      let res =
        Runner.run ~base_seed:seed ?journal
          ~experiment:
            (Printf.sprintf "%s/%s" experiment (Workload.kind_name kind))
          ~device
          ~strategies:[ Compile.Naive; Compile.Greedy_v; Compile.Qaim ]
          ~params problems
      in
      let r num metric = Runner.ratio res ~num ~den:Compile.Naive metric in
      ( Workload.kind_name kind,
        [
          r Compile.Greedy_v (fun a -> a.Runner.mean_depth);
          r Compile.Qaim (fun a -> a.Runner.mean_depth);
          r Compile.Greedy_v (fun a -> a.Runner.mean_gates);
          r Compile.Qaim (fun a -> a.Runner.mean_gates);
        ] ))
    kinds

let fig7 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 7000 in
  header ~quiet "Fig.7" "QAIM vs GreedyV vs NAIVE, 20-node graphs, ibmq_20_tokyo" scale;
  let rows =
    mapping_comparison_rows ?journal ~experiment:"fig7" ~scale ~seed ~n:20
      ~kinds:(er_kinds @ regular_kinds) ~paper_count:50 ()
  in
  print_rows ~quiet
    [ "GreedyV/NAIVE depth"; "QAIM/NAIVE depth"; "GreedyV/NAIVE gates"; "QAIM/NAIVE gates" ]
    rows;
  note ~quiet
    [
      "sparse ER(0.1): QAIM depth -12% vs NAIVE, -10.3% vs GreedyV; gates -20.5% / -16.5%";
      "3-regular: QAIM depth -15.3% / -12.6%; gates -21.3% / -16.9%";
      "dense graphs: all three approaches converge (ratios -> 1.0)";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: problem-size sweep (3-regular, n = 12..20).                *)
(* ------------------------------------------------------------------ *)

let fig8 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 8000 in
  header ~quiet "Fig.8" "mapping quality vs problem size, 3-regular, ibmq_20_tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let c = count ~paper:20 scale in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create (seed + n) in
        let problems = Workload.problems rng (Workload.Regular 3) ~n ~count:c in
        let res =
          Runner.run ~base_seed:seed ?journal
            ~experiment:(Printf.sprintf "fig8/n=%d" n) ~device
            ~strategies:[ Compile.Naive; Compile.Greedy_v; Compile.Qaim ]
            ~params problems
        in
        let r num metric = Runner.ratio res ~num ~den:Compile.Naive metric in
        ( Printf.sprintf "n=%d" n,
          [
            r Compile.Greedy_v (fun a -> a.Runner.mean_depth);
            r Compile.Qaim (fun a -> a.Runner.mean_depth);
            r Compile.Greedy_v (fun a -> a.Runner.mean_gates);
            r Compile.Qaim (fun a -> a.Runner.mean_gates);
          ] ))
      [ 12; 14; 16; 18; 20 ]
  in
  print_rows ~quiet
    [ "GreedyV/NAIVE depth"; "QAIM/NAIVE depth"; "GreedyV/NAIVE gates"; "QAIM/NAIVE gates" ]
    rows;
  note ~quiet
    [
      "n=12: QAIM depth -21.8% and gates -26.8% vs NAIVE; -12.2% / -17.2% vs GreedyV";
      "advantage shrinks as the problem fills the 20-qubit device";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 9: IP and IC vs QAIM-only.                                    *)
(* ------------------------------------------------------------------ *)

let fig9 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 9000 in
  header ~quiet "Fig.9" "IP(+QAIM) and IC(+QAIM) vs QAIM-only, 20-node graphs, tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let c = count ~paper:50 scale in
  let rows =
    List.map
      (fun kind ->
        let rng = Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)) in
        let problems = Workload.problems rng kind ~n:20 ~count:c in
        let res =
          Runner.run ~base_seed:seed ?journal
            ~experiment:
              (Printf.sprintf "fig9/%s" (Workload.kind_name kind))
            ~device
            ~strategies:[ Compile.Qaim; Compile.Ip; Compile.Ic None ]
            ~params problems
        in
        let r num metric = Runner.ratio res ~num ~den:Compile.Qaim metric in
        ( Workload.kind_name kind,
          [
            r Compile.Ip (fun a -> a.Runner.mean_depth);
            r (Compile.Ic None) (fun a -> a.Runner.mean_depth);
            r Compile.Ip (fun a -> a.Runner.mean_gates);
            r (Compile.Ic None) (fun a -> a.Runner.mean_gates);
            r Compile.Ip (fun a -> a.Runner.mean_time);
            r (Compile.Ic None) (fun a -> a.Runner.mean_time);
          ] ))
      (er_kinds @ regular_kinds)
  in
  print_rows ~quiet
    [
      "IP/QAIM depth"; "IC/QAIM depth"; "IP/QAIM gates"; "IC/QAIM gates";
      "IP/QAIM time"; "IC/QAIM time";
    ]
    rows;
  note ~quiet
    [
      "IC depth -39.3% vs QAIM at 3-regular, down to -68% at 8-regular";
      "IC depth ~13.2% below IP on average; IC gates -16.7% vs both QAIM and IP";
      "IP gates ~ QAIM gates; IP compiles ~37% faster than IC";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 10: VIC vs IC success probability on calibrated melbourne.    *)
(* ------------------------------------------------------------------ *)

let fig10 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 10000 in
  header ~quiet "Fig.10" "VIC vs IC success probability, ibmq_16_melbourne (Fig.10a calibration)" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let c = count ~paper:20 scale in
  let rows =
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
  in
  print_rows ~quiet [ "VIC/IC success ratio" ] rows;
  note ~quiet
    [
      "ER(0.5): VIC ~80% higher success probability on average (157% at n=15)";
      "6-regular: ~45.3% higher on average (72.2% at n=14); smaller because";
      "heavily packed layers leave fewer qubit-pair choices";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 11(a): normalized summary over 20-node instances.             *)
(* ------------------------------------------------------------------ *)

let fig11a ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 11000 in
  header ~quiet "Fig.11a" "summary normalized by NAIVE (20-node ER + regular, tokyo)" scale;
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
  let naive = Runner.find res Compile.Naive in
  let rows =
    List.map
      (fun a ->
        ( Compile.strategy_name a.Runner.strategy,
          [
            Stats.ratio a.Runner.mean_depth naive.Runner.mean_depth;
            Stats.ratio a.Runner.mean_gates naive.Runner.mean_gates;
            Stats.ratio a.Runner.mean_time naive.Runner.mean_time;
          ] ))
      res
  in
  print_rows ~quiet [ "depth/NAIVE"; "gates/NAIVE"; "time/NAIVE" ] rows;
  note ~quiet
    [
      "paper table: QAIM 0.95/0.94/~1; IP 0.54/0.92/0.55; IC 0.47/0.77/0.85;";
      "VIC 0.48/0.77/0.86  (depth/gates/time normalized by NAIVE)";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 11(b): ARG on (simulated) hardware.                           *)
(* ------------------------------------------------------------------ *)

let fig11b ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 11500 in
  header ~quiet "Fig.11b"
    "ARG of QAIM/IP/IC/VIC, 12-node instances, melbourne + trajectory noise" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let c = count ~paper:20 scale in
  let shots = match scale with Full -> 8192 | Default -> 2048 | Smoke -> 512 in
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
           let prms, _ = Analytic.optimize ~grid:24 g in
           (problem, prms))
         problems)
  in
  let rows =
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
  in
  print_rows ~quiet [ "mean ARG (%)" ] rows;
  note ~quiet
    [
      "paper (hardware runs): QAIM 20.89, IP 18.29, IC 16.73, VIC 15.50";
      "(IC 8.5% below IP, VIC 7.4% below IC, VIC 25.8% below QAIM)";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 12: packing-limit sweep on the 36-qubit grid.                 *)
(* ------------------------------------------------------------------ *)

let fig12 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 12000 in
  header ~quiet "Fig.12" "IC(+QAIM) vs packing limit, 36-node graphs, 6x6 grid" scale;
  let device = Topologies.grid_6x6 () in
  let c = count ~paper:20 scale in
  let limits =
    match scale with
    | Full -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    | Default -> [ 1; 3; 5; 7; 9; 11; 13; 15 ]
    | Smoke -> [ 3; 11 ]
  in
  let problems =
    List.concat_map
      (fun kind ->
        Workload.problems
          (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
          kind ~n:36 ~count:c)
      [ Workload.Erdos_renyi 0.5; Workload.Regular 15 ]
  in
  let rows =
    List.map
      (fun limit ->
        let res =
          Runner.run ~base_seed:seed ?journal
            ~experiment:(Printf.sprintf "fig12/limit=%d" limit) ~device
            ~strategies:[ Compile.Ic (Some limit) ]
            ~params problems
        in
        let a = List.hd res in
        ( Printf.sprintf "limit=%d" limit,
          [ a.Runner.mean_depth; a.Runner.mean_gates; a.Runner.mean_time ] ))
      limits
  in
  print_rows ~quiet [ "mean depth"; "mean gates"; "mean time (s)" ] rows;
  note ~quiet
    [
      "depth falls with the limit, bottoms out near limit ~11, then degrades";
      "gates grow slowly up to limit ~11, then sharply; time falls monotonically";
      "paper's scaling constants: depth/283, gates/1428, time/9.48 s";
    ];
  rows

(* ------------------------------------------------------------------ *)
(* Sec. VI: ring-8 comparison against the temporal planner [46].      *)
(* ------------------------------------------------------------------ *)

let fig_ring8 ?(scale = Default) ?journal ?(quiet = false) () =
  let seed = 4600 in
  header ~quiet "Sec.VI" "IC(+QAIM) on 8-node/8-edge ER instances, 8-qubit ring" scale;
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
  let rows =
    [ ("IC(+QAIM)", [ a.Runner.mean_depth; a.Runner.mean_gates; a.Runner.mean_time ]) ]
  in
  print_rows ~quiet [ "mean depth"; "mean gates"; "mean time (s)" ] rows;
  note ~quiet
    [
      "reference [46]: temporal planner needed ~70 s for 8-qubit circuits;";
      "the paper reports IC -8.51% depth and -12.99% gates vs [46] on this workload";
    ];
  rows

let all ?(scale = Default) ?journal () =
  (* sequential lets: OCaml list-literal evaluation order is unspecified,
     and the figures print as they run *)
  let f7 = fig7 ~scale ?journal () in
  let f8 = fig8 ~scale ?journal () in
  let f9 = fig9 ~scale ?journal () in
  let f10 = fig10 ~scale ?journal () in
  let f11a = fig11a ~scale ?journal () in
  let f11b = fig11b ~scale ?journal () in
  let f12 = fig12 ~scale ?journal () in
  let ring8 = fig_ring8 ~scale ?journal () in
  [
    ("fig7", f7);
    ("fig8", f8);
    ("fig9", f9);
    ("fig10", f10);
    ("fig11a", f11a);
    ("fig11b", f11b);
    ("fig12", f12);
    ("ring8", ring8);
  ]
