module Compile = Qaoa_core.Compile
module Metrics = Qaoa_circuit.Metrics
module Device = Qaoa_hardware.Device
module Stats = Qaoa_util.Stats
module Json = Qaoa_obs.Json

type aggregate = {
  strategy : Compile.strategy;
  mean_depth : float;
  mean_gates : float;
  mean_cx : float;
  mean_swaps : float;
  mean_time : float;
  mean_success : float option;
  instances : int;
  quarantined : int;
}

(* The journaled unit of work: everything the aggregation needs from one
   (strategy, instance) compile, in journal-payload form. *)
type trial = {
  t_depth : float;
  t_gates : float;
  t_cx : float;
  t_swaps : float;
  t_time : float;
  t_success : float option;
}

let trial_of_result ~calibrated device r =
  {
    t_depth = float_of_int r.Compile.metrics.Metrics.depth;
    t_gates = float_of_int r.Compile.metrics.Metrics.gate_count;
    t_cx = float_of_int r.Compile.metrics.Metrics.two_qubit_count;
    t_swaps = float_of_int r.Compile.swap_count;
    t_time = r.Compile.compile_cpu_s;
    t_success =
      (if calibrated then Some (Compile.success_probability device r)
       else None);
  }

let encode_trial t =
  Json.Assoc
    [
      ("depth", Json.Float t.t_depth);
      ("gates", Json.Float t.t_gates);
      ("cx", Json.Float t.t_cx);
      ("swaps", Json.Float t.t_swaps);
      ("time", Json.Float t.t_time);
      ( "success",
        match t.t_success with Some s -> Json.Float s | None -> Json.Null );
    ]

let decode_trial doc =
  let num field =
    match Option.bind (Json.member field doc) Json.to_float with
    | Some v -> v
    | None -> failwith ("no number under " ^ field)
  in
  {
    t_depth = num "depth";
    t_gates = num "gates";
    t_cx = num "cx";
    t_swaps = num "swaps";
    t_time = num "time";
    t_success = Option.bind (Json.member "success" doc) Json.to_float;
  }

let run ?(base_seed = 1000) ?(options = Compile.default_options) ?journal
    ?experiment ~device ~strategies ~params problems =
  (match (journal, experiment) with
  | Some _, None ->
    invalid_arg "Runner.run: a journal requires ~experiment for trial keys"
  | _ -> ());
  let calibrated = Option.is_some device.Device.calibration in
  List.map
    (fun strategy ->
      Qaoa_obs.Trace.with_span "experiments.runner.strategy"
        ~attrs:
          [
            ( "strategy",
              Qaoa_obs.Trace.str (Compile.strategy_name strategy) );
            ("instances", Qaoa_obs.Trace.int (List.length problems));
            ("device", Qaoa_obs.Trace.str device.Device.name);
          ]
      @@ fun () ->
      let compile_one i problem =
        let options = { options with Compile.seed = base_seed + i } in
        trial_of_result ~calibrated device
          (Compile.compile ~options ~strategy device problem params)
      in
      let trials =
        List.mapi
          (fun i problem ->
            Sweep.trial ?journal
              ~key:
                (Printf.sprintf "%s/%s/i%d/s%d"
                   (Option.value ~default:"" experiment)
                   (Compile.strategy_name strategy)
                   i (base_seed + i))
              ~encode:encode_trial ~decode:decode_trial
              (fun () -> compile_one i problem))
          problems
      in
      let completed = List.filter_map Fun.id trials in
      let fmean f =
        match completed with
        | [] -> Float.nan
        | _ -> Stats.mean (List.map f completed)
      in
      {
        strategy;
        mean_depth = fmean (fun t -> t.t_depth);
        mean_gates = fmean (fun t -> t.t_gates);
        mean_cx = fmean (fun t -> t.t_cx);
        mean_swaps = fmean (fun t -> t.t_swaps);
        mean_time = fmean (fun t -> t.t_time);
        mean_success =
          (if calibrated then
             Some (fmean (fun t -> Option.value ~default:Float.nan t.t_success))
           else None);
        instances = List.length completed;
        quarantined = List.length trials - List.length completed;
      })
    strategies

let find aggregates strategy =
  match List.find_opt (fun a -> a.strategy = strategy) aggregates with
  | Some a -> a
  | None ->
    failwith
      (Printf.sprintf
         "Runner.find: strategy %s has no aggregate (aggregates cover: %s)"
         (Compile.strategy_name strategy)
         (match aggregates with
         | [] -> "none"
         | _ ->
           String.concat ", "
             (List.map
                (fun a -> Compile.strategy_name a.strategy)
                aggregates)))

let ratio aggregates ~num ~den metric =
  Stats.ratio (metric (find aggregates num)) (metric (find aggregates den))

let ratios aggregates ~den ~nums metrics =
  List.concat_map
    (fun metric -> List.map (fun num -> ratio aggregates ~num ~den metric) nums)
    metrics
