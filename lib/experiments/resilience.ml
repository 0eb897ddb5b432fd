module Compile = Qaoa_core.Compile
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Success = Qaoa_hardware.Success
module Topologies = Qaoa_hardware.Topologies
module Fault = Qaoa_resilience.Fault
module Faultspace = Qaoa_resilience.Faultspace
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats
module Metrics = Qaoa_circuit.Metrics

let columns =
  [
    "instances"; "compiled"; "recovered"; "exhausted"; "attempts"; "depth x";
    "swaps x"; "success x";
  ]
  @ List.map (fun s -> Compile.strategy_name s ^ " wins") Compile.default_chain

(* A cell journals the mean depth, swaps and success at these columns;
   its row shows them relative to the workload's healthy baseline. *)
let is_ratio_column i = i >= 5 && i <= 7

let compile_cell ~options ~retries device problems params =
  (* Success charges couplings the degraded snapshot no longer records
     the worst recorded rate, so partial calibration never inflates it. *)
  let cal = Device.calibration_exn device in
  let unrecorded = Calibration.unrecorded_error cal in
  let outcomes =
    List.mapi
      (fun i problem ->
        let options = { options with Compile.seed = options.Compile.seed + i } in
        Compile.compile_with_fallback ~options ~retries device problem params)
      problems
  in
  let won = List.filter_map Result.to_option outcomes in
  let results = List.map (fun fb -> fb.Compile.fallback_result) won in
  let count p l = float_of_int (List.length (List.filter p l)) in
  let mean f l = Stats.mean (List.map f l) in
  [
    float_of_int (List.length problems);
    float_of_int (List.length won);
    count (fun fb -> List.length fb.Compile.attempts > 1) won;
    float_of_int (List.length problems - List.length won);
    mean
      (fun o ->
        float_of_int
          (match o with
          | Ok fb -> List.length fb.Compile.attempts
          | Error trail -> List.length trail))
      outcomes;
    mean (fun r -> float_of_int r.Compile.metrics.Metrics.depth) results;
    mean (fun r -> float_of_int r.Compile.swap_count) results;
    mean (fun r -> Success.of_circuit ~unrecorded cal r.Compile.circuit) results;
  ]
  @ List.map
      (fun s -> count (fun r -> r.Compile.strategy = s) results)
      Compile.default_chain

let workloads = [ Workload.Erdos_renyi 0.5; Workload.Regular 6 ]
let sizes = [ 13; 14; 15 ]

let experiment ?(seed = 13000) ?device ?deadline_s ?(verify = false)
    ?(retries = 1) () =
  let device =
    match device with
    | Some ({ Device.calibration = Some _; _ } as d) -> d
    | Some d -> Device.with_random_calibration (Rng.create seed) d
    | None ->
      Device.with_random_calibration (Rng.create seed)
        (Topologies.ibmq_20_tokyo ())
  in
  let name = device.Device.name in
  Experiment.make Experiment.Ablation ("resilience-" ^ name)
    ~title:("fault sweep through the fallback chain, Fig. 10 workloads, " ^ name)
    ~columns ~notes:[]
  @@ fun ~scale ~journal ->
  let options = { Compile.default_options with seed; verify; deadline_s } in
  let count = Figures.count ~paper:20 scale in
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun n ->
          let workload = Printf.sprintf "%s n=%d" (Workload.kind_name kind) n in
          let problems =
            Workload.problems
              (Rng.create (seed + n + Hashtbl.hash (Workload.kind_name kind)))
              kind ~n ~count
          in
          (* one journaled cell per (device, workload, scenario); it
             carries no timing, so a resumed sweep reproduces an
             uninterrupted one bit for bit *)
          let cell label degraded =
            Sweep.row ?journal
              ~key:(Printf.sprintf "resilience/%s/%s/%s" name workload label)
              ~label:(label ^ " " ^ workload)
              (fun () ->
                compile_cell ~options ~retries (degraded ()) problems
                  Workload.default_params)
          in
          match cell "baseline" (fun () -> device) with
          | None ->
            (* quarantined baseline: no anchor for the ratios, so the
               whole workload is dropped rather than reported skewed *)
            []
          | Some (_, base) ->
            List.filter_map
              (fun { Faultspace.label; faults } ->
                let row =
                  if faults = [] then Some (label ^ " " ^ workload, base)
                  else
                    cell label (fun () ->
                        Fault.apply_all ~seed:(seed + Hashtbl.hash label)
                          faults device)
                in
                Option.map
                  (fun (label, vs) ->
                    ( label,
                      List.mapi
                        (fun i v ->
                          if is_ratio_column i then
                            Stats.ratio v (List.nth base i)
                          else v)
                        vs ))
                  row)
              Faultspace.default)
        sizes)
    workloads

type summary = {
  instances : int;
  compiled : int;
  recovered : int;
  exhausted : int;
}

let summary rows =
  let total i =
    List.fold_left (fun acc (_, vs) -> acc + int_of_float (List.nth vs i)) 0 rows
  in
  { instances = total 0; compiled = total 1; recovered = total 2; exhausted = total 3 }

let summary_to_string s =
  Printf.sprintf "%d/%d compiled, %d recovered by fallback, %d exhausted"
    s.compiled s.instances s.recovered s.exhausted
