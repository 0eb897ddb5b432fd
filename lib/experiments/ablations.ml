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

let count scale ~paper =
  match scale with
  | Experiment.Full -> paper
  | Experiment.Default -> max 2 (paper / 4)
  | Experiment.Smoke -> 2

let params = Workload.default_params

let router_lookahead =
  Experiment.make Experiment.Ablation "router-lookahead"
    ~title:"QAIM whole-circuit routing vs lookahead weight, ER(0.5)-20, tokyo"
    ~columns:[ "mean depth"; "mean swaps" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20100 in
  (* whole-circuit routing (QAIM strategy): IC routes a single layer per
     backend call, so the next-layer lookahead never engages there *)
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:20
      ~count:(count scale ~paper:20)
  in
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

let qaim_strength_order =
  Experiment.make Experiment.Ablation "qaim-strength-order"
    ~title:"connectivity-strength neighbor order on a 36-qubit grid"
    ~columns:[ "QAIM/NAIVE depth"; "QAIM/NAIVE gates" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20200 in
  let device = Topologies.grid_6x6 () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:28
      ~count:(count scale ~paper:20)
  in
  List.map
    (fun order ->
      let options =
        {
          Compile.default_options with
          qaim = { Qaim.strength_order = order };
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

let peephole =
  Experiment.make Experiment.Ablation "peephole"
    ~title:"post-routing CNOT cancellation per strategy, ER(0.5)-20, tokyo"
    ~columns:[ "gates (off)"; "gates (on)"; "reduction %" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20300 in
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:20
      ~count:(count scale ~paper:20)
  in
  let strategies = [ Compile.Naive; Compile.Qaim; Compile.Ip; Compile.Ic None ] in
  let run peephole setting =
    Runner.run ~base_seed:seed
      ~options:{ Compile.default_options with peephole }
      ?journal ~experiment:("ablation/peephole/" ^ setting)
      ~device ~strategies ~params problems
  in
  List.map2
    (fun off on ->
      let off_gates = off.Runner.mean_gates and on_gates = on.Runner.mean_gates in
      ( Compile.strategy_name on.Runner.strategy,
        [ off_gates; on_gates; 100.0 *. (off_gates -. on_gates) /. off_gates ] ))
    (run false "off") (run true "on")

let reverse_traversal =
  Experiment.make Experiment.Ablation "reverse-traversal"
    ~title:"mapping refinement iterations, 10-node 3-regular, melbourne"
    ~columns:[ "mean swaps" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20400 in
  let device = Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:10
      ~count:(count scale ~paper:20)
  in
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

let mapper_shootout =
  Experiment.make Experiment.Ablation "mapper-shootout"
    ~title:"initial-mapping policies incl. VQA, 10-node 3-regular, melbourne"
    ~columns:[ "mean depth"; "mean gates"; "mean success" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20500 in
  let device = Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:10
      ~count:(count scale ~paper:20)
  in
  (* Compile draws each mapping, CPHASE order and route from
     [Rng.create (seed + i)], as a hand-written loop would *)
  List.map
    (fun a ->
      ( Compile.strategy_name a.Runner.strategy,
        [
          a.Runner.mean_depth;
          a.Runner.mean_gates;
          Option.get a.Runner.mean_success;
        ] ))
    (Runner.run ~base_seed:seed
       ~options:{ Compile.default_options with measure = false }
       ?journal ~experiment:"ablation/mapper-shootout" ~device
       ~strategies:
         [
           Compile.Naive; Compile.Greedy_v; Compile.Greedy_e; Compile.Qaim;
           Compile.Vqa_alloc;
         ]
       ~params problems)

let iterative =
  Experiment.make Experiment.Ablation "iterative"
    ~title:"single-shot IC vs iterative recompilation (Sec. VII trade-off)"
    ~columns:[ "mean depth"; "mean compile time (s)" ]
    ~notes:[ "Sec. VII quotes ~10x-600x time penalty for iterative flows" ]
  @@ fun ~scale ~journal ->
  let seed = 20600 in
  let device = Topologies.ibmq_20_tokyo () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Erdos_renyi 0.5) ~n:16
      ~count:(count scale ~paper:12)
  in
  let single =
    List.hd
      (Runner.run ~base_seed:seed ?journal
         ~experiment:"ablation/iterative/single-shot" ~device
         ~strategies:[ Compile.Ic None ] ~params problems)
  in
  ("IC single-shot", [ single.Runner.mean_depth; single.Runner.mean_time ])
  :: Option.to_list
       (Sweep.row ?journal ~key:"ablation/iterative/iterative"
          ~label:"IC iterative" (fun () ->
            let iterated =
              List.mapi
                (fun i problem ->
                  let base = { Compile.default_options with seed = seed + i } in
                  Iterative.compile ~patience:4 ~max_rounds:16 ~base
                    ~strategy:(Compile.Ic None) device problem params)
                problems
            in
            let mean f = Stats.mean (List.map f iterated) in
            [
              mean (fun r ->
                  float_of_int r.Iterative.best.Compile.metrics.Metrics.depth);
              mean (fun r -> r.Iterative.total_cpu_s);
            ]))

let qaoa_levels =
  Experiment.make Experiment.Ablation "qaoa-levels"
    ~title:"IC depth/gates scaling with p, 12-node 3-regular, melbourne"
    ~columns:[ "mean depth"; "mean gates" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20700 in
  let device = Topologies.ibmq_16_melbourne () in
  let problems =
    Workload.problems (Rng.create seed) (Workload.Regular 3) ~n:12
      ~count:(count scale ~paper:12)
  in
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

let swap_network =
  Experiment.make Experiment.Ablation "swap-network"
    ~title:"IC vs odd-even swap network across densities, 24-node ER, 6x6 grid"
    ~columns:[ "IC depth"; "network depth"; "IC swaps"; "network swaps" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20900 in
  let device = Topologies.grid_6x6 () in
  let line = Qaoa_core.Swap_network.serpentine_line ~rows:6 ~cols:6 in
  List.filter_map
    (fun p ->
      let knob = Printf.sprintf "ablation/swap-network/p=%.1f" p in
      let problems =
        Workload.problems
          (Rng.create (seed + int_of_float (p *. 100.)))
          (Workload.Erdos_renyi p) ~n:24 ~count:(count scale ~paper:12)
      in
      let ic =
        List.hd
          (Runner.run ~base_seed:seed ?journal ~experiment:knob ~device
             ~strategies:[ Compile.Ic None ] ~params problems)
      in
      Option.map
        (fun (label, network) ->
          ( label,
            [
              ic.Runner.mean_depth; List.nth network 0; ic.Runner.mean_swaps;
              List.nth network 1;
            ] ))
        (Sweep.row ?journal ~key:(knob ^ "/network")
           ~label:(Printf.sprintf "ER(p=%.1f)" p)
           (fun () ->
             let routed =
               List.map
                 (fun problem ->
                   Qaoa_core.Swap_network.compile ~line device problem params)
                 problems
             in
             let mean f = Stats.mean (List.map f routed) in
             [
               mean (fun r ->
                   float_of_int (Metrics.of_circuit r.Router.circuit).Metrics.depth);
               mean (fun r -> float_of_int r.Router.swap_count);
             ])))
    [ 0.2; 0.4; 0.6; 0.8 ]

let graph_families =
  Experiment.make Experiment.Ablation "graph-families"
    ~title:"QAIM/IC benefit across workload families, 20-node, tokyo"
    ~columns:[ "QAIM/NAIVE depth"; "IC/NAIVE depth"; "QAIM/NAIVE gates"; "IC/NAIVE gates" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 21200 in
  let device = Topologies.ibmq_20_tokyo () in
  let strategies = [ Compile.Naive; Compile.Qaim; Compile.Ic None ] in
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

let heavy_hex =
  Experiment.make Experiment.Ablation "heavy-hex"
    ~title:"methodologies on the 27-qubit heavy-hex lattice, 20-node 3-regular"
    ~columns:[ "depth/NAIVE"; "gates/NAIVE" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 21000 in
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
  List.map
    (fun a ->
      ( Compile.strategy_name a.Runner.strategy,
        [
          Stats.ratio a.Runner.mean_depth naive.Runner.mean_depth;
          Stats.ratio a.Runner.mean_gates naive.Runner.mean_gates;
        ] ))
    res

let crosstalk =
  Experiment.make Experiment.Ablation "crosstalk"
    ~title:"sequentializing the k most error-prone couplings, melbourne"
    ~columns:[ "mean depth"; "mean conflicts" ]
    ~notes:[]
  @@ fun ~scale ~journal ->
  let seed = 20800 in
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

let all =
  [
    router_lookahead; qaim_strength_order; peephole; reverse_traversal;
    mapper_shootout; iterative; qaoa_levels; swap_network; heavy_hex;
    crosstalk; graph_families;
  ]
