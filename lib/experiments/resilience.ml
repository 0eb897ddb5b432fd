module Compile = Qaoa_core.Compile
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Success = Qaoa_hardware.Success
module Topologies = Qaoa_hardware.Topologies
module Fault = Qaoa_resilience.Fault
module Faultspace = Qaoa_resilience.Faultspace
module Rng = Qaoa_util.Rng
module Stats = Qaoa_util.Stats
module Table = Qaoa_util.Table
module Metrics = Qaoa_circuit.Metrics
module Json = Qaoa_obs.Json
module Supervisor = Qaoa_journal.Supervisor

type row = {
  scenario : string;
  workload : string;
  instances : int;
  compiled : int;
  fallback_recovered : int;
  exhausted : int;
  mean_attempts : float;
  mean_depth : float;
  mean_swaps : float;
  mean_success : float;
  depth_ratio : float;
  swap_ratio : float;
  success_ratio : float;
  winners : (string * int) list;
}

(* Per-workload stats of one scenario, before ratios are attached. *)
type cell = {
  c_instances : int;
  c_compiled : int;
  c_recovered : int;
  c_exhausted : int;
  c_attempts : float;
  c_depth : float;
  c_swaps : float;
  c_success : float;
  c_winners : (string * int) list;
}

let tally winners name =
  let n = Option.value ~default:0 (List.assoc_opt name winners) in
  (name, n + 1) :: List.remove_assoc name winners

let compile_cell ~options ~retries device problems params =
  (* Success charges couplings the degraded snapshot no longer records
     the worst recorded rate, so partial calibration never inflates it. *)
  let cal = Device.calibration_exn device in
  let unrecorded = Calibration.unrecorded_error cal in
  let compiled = ref 0 and recovered = ref 0 and exhausted = ref 0 in
  let attempts = ref [] and depths = ref [] and swaps = ref [] in
  let successes = ref [] and winners = ref [] in
  List.iteri
    (fun i problem ->
      let options = { options with Compile.seed = options.Compile.seed + i } in
      match Compile.compile_with_fallback ~options ~retries device problem params with
      | Ok fb ->
        let r = fb.Compile.fallback_result in
        incr compiled;
        if List.length fb.Compile.attempts > 1 then incr recovered;
        attempts := float_of_int (List.length fb.Compile.attempts) :: !attempts;
        depths := float_of_int r.Compile.metrics.Metrics.depth :: !depths;
        swaps := float_of_int r.Compile.swap_count :: !swaps;
        successes :=
          Success.of_circuit ~unrecorded cal r.Compile.circuit :: !successes;
        winners := tally !winners (Compile.strategy_name r.Compile.strategy)
      | Error trail ->
        incr exhausted;
        attempts := float_of_int (List.length trail) :: !attempts)
    problems;
  let mean xs = if xs = [] then Float.nan else Stats.mean xs in
  {
    c_instances = List.length problems;
    c_compiled = !compiled;
    c_recovered = !recovered;
    c_exhausted = !exhausted;
    c_attempts = mean !attempts;
    c_depth = mean !depths;
    c_swaps = mean !swaps;
    c_success = mean !successes;
    c_winners =
      List.sort (fun (_, a) (_, b) -> compare b a) !winners;
  }

let encode_cell c =
  Json.Assoc
    [
      ("instances", Json.Int c.c_instances);
      ("compiled", Json.Int c.c_compiled);
      ("recovered", Json.Int c.c_recovered);
      ("exhausted", Json.Int c.c_exhausted);
      ("attempts", Json.Float c.c_attempts);
      ("depth", Json.Float c.c_depth);
      ("swaps", Json.Float c.c_swaps);
      ("success", Json.Float c.c_success);
      ( "winners",
        Json.List
          (List.map
             (fun (name, n) ->
               Json.Assoc [ ("name", Json.String name); ("n", Json.Int n) ])
             c.c_winners) );
    ]

let decode_cell doc =
  let num field =
    Option.value ~default:Float.nan
      (Option.bind (Json.member field doc) Json.to_float)
  in
  let int field = int_of_float (num field) in
  {
    c_instances = int "instances";
    c_compiled = int "compiled";
    c_recovered = int "recovered";
    c_exhausted = int "exhausted";
    c_attempts = num "attempts";
    c_depth = num "depth";
    c_swaps = num "swaps";
    c_success = num "success";
    c_winners =
      (match Json.member "winners" doc with
      | Some (Json.List ws) ->
        List.filter_map
          (fun w ->
            match (Json.member "name" w, Json.member "n" w) with
            | Some (Json.String name), Some n ->
              Option.map
                (fun n -> (name, int_of_float n))
                (Json.to_float n)
            | _ -> None)
          ws
      | _ -> []);
  }

(* One journaled unit of work = one (device, workload, scenario) cell;
   the cell carries no timing, so resumed sweeps reproduce uninterrupted
   ones bit for bit.  Without a journal the thunk runs directly,
   preserving the historical contract (exceptions propagate). *)
let supervised_cell ?journal ~key f =
  match journal with
  | None -> Some (f ())
  | Some journal -> (
    match
      Supervisor.trial ~journal ~key ~encode:encode_cell ~decode:decode_cell f
    with
    | Supervisor.Completed c -> Some c
    | Supervisor.Quarantined _ -> None)

let workloads = [ Workload.Erdos_renyi 0.5; Workload.Regular 6 ]
let sizes = [ 13; 14; 15 ]

let run ?(scale = Experiment.Default) ?journal ?(seed = 13000) ?device
    ?deadline_s ?(verify = false) ?(retries = 1) () =
  let base_device =
    match device with
    | Some ({ Device.calibration = Some _; _ } as d) -> d
    | Some d -> Device.with_random_calibration (Rng.create seed) d
    | None ->
      Device.with_random_calibration (Rng.create seed)
        (Topologies.ibmq_20_tokyo ())
  in
  Printf.printf
    "\n=== Resilience: fault sweep, fallback compilation, %s  [scale=%s] ===\n"
    base_device.Device.name (Experiment.scale_name scale);
  let options =
    { Compile.default_options with seed; verify; deadline_s }
  in
  let c = Figures.count ~paper:20 scale in
  let params = Workload.default_params in
  let rows =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun n ->
            let workload = Printf.sprintf "%s n=%d" (Workload.kind_name kind) n in
            let problems =
              Workload.problems
                (Rng.create (seed + n + Hashtbl.hash (Workload.kind_name kind)))
                kind ~n ~count:c
            in
            let cell_key suffix =
              Printf.sprintf "resilience/%s/%s/%s" base_device.Device.name
                workload suffix
            in
            match
              supervised_cell ?journal ~key:(cell_key "baseline") (fun () ->
                  compile_cell ~options ~retries base_device problems params)
            with
            | None ->
              (* quarantined baseline: no anchor for the ratios, so the
                 whole workload is dropped rather than reported skewed *)
              []
            | Some base ->
              List.filter_map
                (fun sc ->
                  let cell =
                    if sc.Faultspace.faults = [] then Some base
                    else
                      supervised_cell ?journal
                        ~key:(cell_key sc.Faultspace.label)
                        (fun () ->
                          compile_cell ~options ~retries
                            (Fault.apply_all
                               ~seed:(seed + Hashtbl.hash sc.Faultspace.label)
                               sc.Faultspace.faults base_device)
                            problems params)
                  in
                  Option.map
                    (fun cell ->
                      {
                        scenario = sc.Faultspace.label;
                        workload;
                        instances = cell.c_instances;
                        compiled = cell.c_compiled;
                        fallback_recovered = cell.c_recovered;
                        exhausted = cell.c_exhausted;
                        mean_attempts = cell.c_attempts;
                        mean_depth = cell.c_depth;
                        mean_swaps = cell.c_swaps;
                        mean_success = cell.c_success;
                        depth_ratio = Stats.ratio cell.c_depth base.c_depth;
                        swap_ratio = Stats.ratio cell.c_swaps base.c_swaps;
                        success_ratio =
                          Stats.ratio cell.c_success base.c_success;
                        winners = cell.c_winners;
                      })
                    cell)
                Faultspace.default)
          sizes)
      workloads
  in
  let t =
    Table.create
      [
        "scenario"; "workload"; "ok"; "fb"; "exh"; "att"; "depth x";
        "swaps x"; "succ x"; "winner";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.scenario;
          r.workload;
          Printf.sprintf "%d/%d" r.compiled r.instances;
          string_of_int r.fallback_recovered;
          string_of_int r.exhausted;
          Table.float_cell ~decimals:1 r.mean_attempts;
          Table.float_cell r.depth_ratio;
          Table.float_cell r.swap_ratio;
          Table.float_cell r.success_ratio;
          (match r.winners with (name, _) :: _ -> name | [] -> "-");
        ])
    rows;
  Table.print t;
  rows
