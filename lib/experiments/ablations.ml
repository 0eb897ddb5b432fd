module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Ic = Qaoa_core.Ic
module Qaim = Qaoa_core.Qaim
module Vqa = Qaoa_core.Vqa
module Naive = Qaoa_core.Naive
module Iterative = Qaoa_core.Iterative
module Reverse_traversal = Qaoa_core.Reverse_traversal
module Crosstalk_pass = Qaoa_core.Crosstalk
module Router = Qaoa_backend.Router
module Mapping = Qaoa_backend.Mapping
module Metrics = Qaoa_circuit.Metrics
module Layering = Qaoa_circuit.Layering
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Topologies = Qaoa_hardware.Topologies
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats
module Table = Qaoa_util.Table

type row = string * float list

let count scale ~paper =
  match scale with
  | Figures.Full -> paper
  | Figures.Default -> max 2 (paper / 4)
  | Figures.Smoke -> 2

let header ~quiet id title scale =
  if not quiet then
    Printf.printf "\n=== ablation/%s: %s  [scale=%s] ===\n" id title
      (Figures.scale_name scale)

let print_rows ~quiet columns rows =
  if not quiet then begin
    let t = Table.create ("setting" :: columns) in
    List.iter (fun (label, values) -> Table.add_float_row t label values) rows;
    Table.print t
  end

let params = Workload.default_params

let router_lookahead ?(scale = Figures.Default) ?journal ?(seed = 20100)
    ?(quiet = false) () =
  (* whole-circuit routing (QAIM strategy): IC routes a single layer per
     backend call, so the next-layer lookahead never engages there *)
  header ~quiet "router-lookahead" "QAIM whole-circuit routing vs lookahead weight, ER(0.5)-20, tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:20
      ~count:(count scale ~paper:20)
  in
  let rows =
    List.map
      (fun w ->
        let options =
          {
            Compile.default_options with
            router = { Router.default_config with lookahead_weight = w };
          }
        in
        let res =
          Runner.run ~base_seed:seed ~options ?journal
            ~experiment:
              (Printf.sprintf "ablation/router-lookahead/w=%.2f" w)
            ~device ~strategies:[ Compile.Qaim ] ~params problems
        in
        let a = List.hd res in
        ( Printf.sprintf "lookahead=%.2f" w,
          [ a.Runner.mean_depth; a.Runner.mean_swaps ] ))
      [ 0.0; 0.25; 0.5; 1.0 ]
  in
  print_rows ~quiet [ "mean depth"; "mean swaps" ] rows;
  rows

let qaim_strength_order ?(scale = Figures.Default) ?journal ?(seed = 20200)
    ?(quiet = false) () =
  header ~quiet "qaim-strength-order"
    "connectivity-strength neighbor order on a 36-qubit grid" scale;
  let device = Topologies.grid_6x6 () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:28
      ~count:(count scale ~paper:20)
  in
  let rows =
    List.map
      (fun order ->
        let options =
          {
            Compile.default_options with
            qaim = { Qaim.default_config with strength_order = order };
          }
        in
        let res =
          Runner.run ~base_seed:seed ~options ?journal
            ~experiment:
              (Printf.sprintf "ablation/qaim-strength-order/order=%d" order)
            ~device
            ~strategies:[ Compile.Naive; Compile.Qaim ]
            ~params problems
        in
        let r metric = Runner.ratio res ~num:Compile.Qaim ~den:Compile.Naive metric in
        ( Printf.sprintf "order=%d" order,
          [
            r (fun a -> a.Runner.mean_depth);
            r (fun a -> a.Runner.mean_gates);
          ] ))
      [ 1; 2; 3 ]
  in
  print_rows ~quiet [ "QAIM/NAIVE depth"; "QAIM/NAIVE gates" ] rows;
  rows

let peephole ?(scale = Figures.Default) ?journal ?(seed = 20300) ?(quiet = false) () =
  header ~quiet "peephole" "post-routing CNOT cancellation per strategy, ER(0.5)-20, tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:20
      ~count:(count scale ~paper:20)
  in
  let strategies = [ Compile.Naive; Compile.Qaim; Compile.Ip; Compile.Ic None ] in
  let rows =
    List.filter_map
      (fun strategy ->
        Sweep.row ?journal
          ~key:
            (Printf.sprintf "ablation/peephole/%s"
               (Compile.strategy_name strategy))
          ~label:(Compile.strategy_name strategy)
          (fun () ->
            let gates ~peephole =
              Stats.mean
                (List.mapi
                   (fun i problem ->
                     let options =
                       { Compile.default_options with seed = seed + i; peephole }
                     in
                     let r = Compile.compile ~options ~strategy device problem params in
                     float_of_int r.Compile.metrics.Metrics.gate_count)
                   problems)
            in
            let off = gates ~peephole:false and on = gates ~peephole:true in
            [ off; on; 100.0 *. (off -. on) /. off ]))
      strategies
  in
  print_rows ~quiet [ "gates (off)"; "gates (on)"; "reduction %" ] rows;
  rows

let reverse_traversal ?(scale = Figures.Default) ?journal ?(seed = 20400)
    ?(quiet = false) () =
  header ~quiet "reverse-traversal" "mapping refinement iterations, 10-node 3-regular, melbourne" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:10
      ~count:(count scale ~paper:20)
  in
  let rows =
    List.filter_map
      (fun iterations ->
        Sweep.row ?journal
          ~key:
            (Printf.sprintf "ablation/reverse-traversal/iterations=%d"
               iterations)
          ~label:(Printf.sprintf "iterations=%d" iterations)
          (fun () ->
            let swaps =
              List.mapi
                (fun i problem ->
                  let rng = Rng.create (seed + i) in
                  let circuit = Ansatz.circuit ~measure:false problem params in
                  let initial = Naive.initial_mapping rng device problem in
                  let refined =
                    Reverse_traversal.refine ~iterations ~device ~initial
                      circuit
                  in
                  float_of_int
                    (Router.route ~device ~initial:refined circuit)
                      .Router.swap_count)
                problems
            in
            [ Stats.mean swaps ]))
      [ 0; 1; 2; 3; 4 ]
  in
  print_rows ~quiet [ "mean swaps" ] rows;
  rows

let mapper_shootout ?(scale = Figures.Default) ?journal ?(seed = 20500)
    ?(quiet = false) () =
  header ~quiet "mapper-shootout" "initial-mapping policies incl. VQA, 10-node 3-regular, melbourne" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let cal = Device.calibration_exn device in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:10
      ~count:(count scale ~paper:20)
  in
  let mappers =
    [
      ("NAIVE", fun rng problem -> Naive.initial_mapping rng device problem);
      ("GreedyV", fun rng problem -> Qaoa_core.Greedy_mapper.greedy_v rng device problem);
      ("GreedyE", fun rng problem -> Qaoa_core.Greedy_mapper.greedy_e rng device problem);
      ("QAIM", fun rng problem -> Qaim.initial_mapping rng device problem);
      ("VQA", fun rng problem -> Vqa.initial_mapping rng device problem);
    ]
  in
  let rows =
    List.filter_map
      (fun (name, mapper) ->
        Sweep.row ?journal
          ~key:(Printf.sprintf "ablation/mapper-shootout/%s" name)
          ~label:name
          (fun () ->
            let stats =
              List.mapi
                (fun i problem ->
                  let rng = Rng.create (seed + i) in
                  let initial = mapper rng problem in
                  let circuit =
                    Ansatz.circuit ~measure:false
                      ~orders:[ Naive.cphase_order rng problem ]
                      problem params
                  in
                  let r = Router.route ~device ~initial circuit in
                  let m = Metrics.of_circuit r.Router.circuit in
                  ( float_of_int m.Metrics.depth,
                    float_of_int m.Metrics.gate_count,
                    Qaoa_hardware.Success.of_circuit cal r.Router.circuit ))
                problems
            in
            let pick f = Stats.mean (List.map f stats) in
            [
              pick (fun (d, _, _) -> d);
              pick (fun (_, g, _) -> g);
              pick (fun (_, _, s) -> s);
            ]))
      mappers
  in
  print_rows ~quiet [ "mean depth"; "mean gates"; "mean success" ] rows;
  rows

let iterative_recompilation ?(scale = Figures.Default) ?journal ?(seed = 20600)
    ?(quiet = false) () =
  header ~quiet "iterative" "single-shot IC vs iterative recompilation (Sec. VII trade-off)" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:16
      ~count:(count scale ~paper:12)
  in
  let mean_of f l = Stats.mean (List.map f l) in
  let rows =
    List.filter_map Fun.id
      [
        Sweep.row ?journal ~key:"ablation/iterative/single-shot"
          ~label:"IC single-shot"
          (fun () ->
            let single =
              List.mapi
                (fun i problem ->
                  let options =
                    { Compile.default_options with seed = seed + i }
                  in
                  let r =
                    Compile.compile ~options ~strategy:(Compile.Ic None)
                      device problem params
                  in
                  ( float_of_int r.Compile.metrics.Metrics.depth,
                    r.Compile.compile_cpu_s ))
                problems
            in
            [ mean_of fst single; mean_of snd single ]);
        Sweep.row ?journal ~key:"ablation/iterative/iterative"
          ~label:"IC iterative"
          (fun () ->
            let iterated =
              List.mapi
                (fun i problem ->
                  let base = { Compile.default_options with seed = seed + i } in
                  let r =
                    Iterative.compile ~patience:4 ~max_rounds:16 ~base
                      ~strategy:(Compile.Ic None) device problem params
                  in
                  ( float_of_int r.Iterative.best.Compile.metrics.Metrics.depth,
                    r.Iterative.total_time ))
                problems
            in
            [ mean_of fst iterated; mean_of snd iterated ]);
      ]
  in
  print_rows ~quiet [ "mean depth"; "mean compile time (s)" ] rows;
  if not quiet then
    Printf.printf
      "  (paper Sec. VII quotes ~10x-600x time penalty for iterative flows)\n";
  rows

let qaoa_levels ?(scale = Figures.Default) ?journal ?(seed = 20700) ?(quiet = false) ()
    =
  header ~quiet "qaoa-levels" "IC depth/gates scaling with p, 12-node 3-regular, melbourne" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:12
      ~count:(count scale ~paper:12)
  in
  let rows =
    List.map
      (fun p ->
        let prms =
          { Ansatz.gammas = Array.make p 0.7; betas = Array.make p 0.4 }
        in
        let res =
          Runner.run ~base_seed:seed ?journal
            ~experiment:(Printf.sprintf "ablation/qaoa-levels/p=%d" p)
            ~device ~strategies:[ Compile.Ic None ] ~params:prms problems
        in
        let a = List.hd res in
        (Printf.sprintf "p=%d" p, [ a.Runner.mean_depth; a.Runner.mean_gates ]))
      [ 1; 2; 3 ]
  in
  print_rows ~quiet [ "mean depth"; "mean gates" ] rows;
  rows

let swap_network_crossover ?(scale = Figures.Default) ?journal ?(seed = 20900)
    ?(quiet = false) () =
  header ~quiet "swap-network" "IC vs odd-even swap network across densities, 24-node ER, 6x6 grid" scale;
  let device = Topologies.grid_6x6 () in
  let line = Qaoa_core.Swap_network.serpentine_line ~rows:6 ~cols:6 in
  let rows =
    List.filter_map
      (fun p ->
        Sweep.row ?journal
          ~key:(Printf.sprintf "ablation/swap-network/p=%.1f" p)
          ~label:(Printf.sprintf "ER(p=%.1f)" p)
          (fun () ->
            let problems =
              Workload.problems
                (Rng.create (seed + int_of_float (p *. 100.)))
                (Workload.Erdos_renyi p) ~n:24 ~count:(count scale ~paper:12)
            in
            let stats =
              List.mapi
                (fun i problem ->
                  let options =
                    { Compile.default_options with seed = seed + i }
                  in
                  let ic =
                    Compile.compile ~options ~strategy:(Compile.Ic None) device
                      problem params
                  in
                  let sn =
                    Qaoa_core.Swap_network.compile ~line device problem params
                  in
                  let sn_metrics = Metrics.of_circuit sn.Router.circuit in
                  ( float_of_int ic.Compile.metrics.Metrics.depth,
                    float_of_int sn_metrics.Metrics.depth,
                    float_of_int ic.Compile.swap_count,
                    float_of_int sn.Router.swap_count ))
                problems
            in
            let pick f = Stats.mean (List.map f stats) in
            [
              pick (fun (a, _, _, _) -> a);
              pick (fun (_, b, _, _) -> b);
              pick (fun (_, _, c, _) -> c);
              pick (fun (_, _, _, d) -> d);
            ]))
      [ 0.2; 0.4; 0.6; 0.8 ]
  in
  print_rows ~quiet
    [ "IC depth"; "network depth"; "IC swaps"; "network swaps" ]
    rows;
  rows

let graph_families ?(scale = Figures.Default) ?journal ?(seed = 21200)
    ?(quiet = false) () =
  header ~quiet "graph-families" "QAIM/IC benefit across workload families, 20-node, tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let strategies = [ Compile.Naive; Compile.Qaim; Compile.Ic None ] in
  let rows =
    List.map
      (fun kind ->
        let problems =
          Workload.problems
            (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
            kind ~n:20 ~count:(count scale ~paper:20)
        in
        let res =
          Runner.run ~base_seed:seed ?journal
            ~experiment:
              (Printf.sprintf "ablation/graph-families/%s"
                 (Workload.kind_name kind))
            ~device ~strategies ~params problems
        in
        let r num metric = Runner.ratio res ~num ~den:Compile.Naive metric in
        ( Workload.kind_name kind,
          [
            r Compile.Qaim (fun a -> a.Runner.mean_depth);
            r (Compile.Ic None) (fun a -> a.Runner.mean_depth);
            r Compile.Qaim (fun a -> a.Runner.mean_gates);
            r (Compile.Ic None) (fun a -> a.Runner.mean_gates);
          ] ))
      [
        Workload.Erdos_renyi 0.3;
        Workload.Regular 3;
        Workload.Barabasi_albert 2;
        Workload.Watts_strogatz (4, 0.3);
      ]
  in
  print_rows ~quiet
    [ "QAIM/NAIVE depth"; "IC/NAIVE depth"; "QAIM/NAIVE gates"; "IC/NAIVE gates" ]
    rows;
  rows

let router_shootout ?(scale = Figures.Default) ?journal ?(seed = 21100)
    ?(quiet = false) () =
  header ~quiet "router-shootout" "layer-partitioned vs SABRE-style router, QAIM mapping, tokyo" scale;
  let device = Topologies.ibmq_20_tokyo () in
  let rows =
    List.filter_map
      (fun kind ->
        Sweep.row ?journal
          ~key:
            (Printf.sprintf "ablation/router-shootout/%s"
               (Workload.kind_name kind))
          ~label:(Workload.kind_name kind)
          (fun () ->
            let problems =
              Workload.problems
                (Rng.create (seed + Hashtbl.hash (Workload.kind_name kind)))
                kind ~n:20 ~count:(count scale ~paper:16)
            in
            let stats =
              List.mapi
                (fun i problem ->
                  let rng = Rng.create (seed + i) in
                  let initial = Qaim.initial_mapping rng device problem in
                  let circuit =
                    Ansatz.circuit ~orders:[ Qaoa_core.Ip.order rng problem ]
                      problem params
                  in
                  let a = Router.route ~device ~initial circuit in
                  let b = Qaoa_backend.Sabre.route ~device ~initial circuit in
                  ( float_of_int
                      (Metrics.of_circuit a.Router.circuit).Metrics.depth,
                    float_of_int
                      (Metrics.of_circuit b.Router.circuit).Metrics.depth,
                    float_of_int a.Router.swap_count,
                    float_of_int b.Router.swap_count ))
                problems
            in
            let pick f = Stats.mean (List.map f stats) in
            [
              pick (fun (a, _, _, _) -> a);
              pick (fun (_, b, _, _) -> b);
              pick (fun (_, _, c, _) -> c);
              pick (fun (_, _, _, d) -> d);
            ]))
      [ Workload.Erdos_renyi 0.3; Workload.Regular 3; Workload.Regular 6 ]
  in
  print_rows ~quiet
    [ "primary depth"; "sabre depth"; "primary swaps"; "sabre swaps" ]
    rows;
  rows

let heavy_hex_generalization ?(scale = Figures.Default) ?journal ?(seed = 21000)
    ?(quiet = false) () =
  header ~quiet "heavy-hex" "methodologies on the 27-qubit heavy-hex lattice, 20-node 3-regular" scale;
  let device = Topologies.heavy_hex_27 () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:20
      ~count:(count scale ~paper:20)
  in
  let strategies = [ Compile.Naive; Compile.Qaim; Compile.Ip; Compile.Ic None ] in
  let res =
    Runner.run ~base_seed:seed ?journal ~experiment:"ablation/heavy-hex"
      ~device ~strategies ~params problems
  in
  let naive = Runner.find res Compile.Naive in
  let rows =
    List.map
      (fun a ->
        ( Compile.strategy_name a.Runner.strategy,
          [
            Stats.ratio a.Runner.mean_depth naive.Runner.mean_depth;
            Stats.ratio a.Runner.mean_gates naive.Runner.mean_gates;
          ] ))
      res
  in
  print_rows ~quiet [ "depth/NAIVE"; "gates/NAIVE" ] rows;
  rows

let crosstalk ?(scale = Figures.Default) ?journal ?(seed = 20800) ?(quiet = false) () =
  header ~quiet "crosstalk" "sequentializing the k most error-prone couplings, melbourne" scale;
  let device = Topologies.ibmq_16_melbourne () in
  let cal = Device.calibration_exn device in
  let worst_k k =
    let ranked =
      List.sort
        (fun (u, v) (u', v') ->
          compare (Calibration.cnot_error cal u' v') (Calibration.cnot_error cal u v))
        (Device.coupling_edges device)
    in
    List.filteri (fun i _ -> i < k) ranked
  in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:12
      ~count:(count scale ~paper:12)
  in
  let compiled =
    (* lazy so fully-cached resumes skip the IP compiles entirely *)
    lazy
      (List.mapi
         (fun i problem ->
           let options = { Compile.default_options with seed = seed + i } in
           (Compile.compile ~options ~strategy:Compile.Ip device problem params)
             .Compile.circuit)
         problems)
  in
  let rows =
    List.filter_map
      (fun k ->
        Sweep.row ?journal
          ~key:(Printf.sprintf "ablation/crosstalk/k=%d" k)
          ~label:(Printf.sprintf "k=%d" k)
          (fun () ->
            let stats =
              List.map
                (fun circuit ->
                  if k = 0 then (float_of_int (Layering.depth circuit), 0.0)
                  else begin
                    let seq, st =
                      Crosstalk_pass.apply_with_stats
                        ~high_crosstalk:(worst_k k) circuit
                    in
                    ( float_of_int (Layering.depth seq),
                      float_of_int st.Crosstalk_pass.conflicts )
                  end)
                (Lazy.force compiled)
            in
            [
              Stats.mean (List.map fst stats);
              Stats.mean (List.map snd stats);
            ]))
      [ 0; 1; 3; 5 ]
  in
  print_rows ~quiet [ "mean depth"; "mean conflicts" ] rows;
  rows

let all ?(scale = Figures.Default) ?journal () =
  let a1 = router_lookahead ~scale ?journal () in
  let a2 = qaim_strength_order ~scale ?journal () in
  let a3 = peephole ~scale ?journal () in
  let a4 = reverse_traversal ~scale ?journal () in
  let a5 = mapper_shootout ~scale ?journal () in
  let a6 = iterative_recompilation ~scale ?journal () in
  let a7 = qaoa_levels ~scale ?journal () in
  let a8 = swap_network_crossover ~scale ?journal () in
  let a9 = heavy_hex_generalization ~scale ?journal () in
  let a10 = crosstalk ~scale ?journal () in
  let a11 = router_shootout ~scale ?journal () in
  let a12 = graph_families ~scale ?journal () in
  [
    ("router-lookahead", a1);
    ("qaim-strength-order", a2);
    ("peephole", a3);
    ("reverse-traversal", a4);
    ("mapper-shootout", a5);
    ("iterative", a6);
    ("qaoa-levels", a7);
    ("swap-network", a8);
    ("heavy-hex", a9);
    ("crosstalk", a10);
    ("router-shootout", a11);
    ("graph-families", a12);
  ]
