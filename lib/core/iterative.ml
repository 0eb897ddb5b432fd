module Metrics = Qaoa_circuit.Metrics
module Device = Qaoa_hardware.Device

type result = {
  best : Compile.result;
  rounds : int;
  improvements : int;
  total_wall_s : float;
  total_cpu_s : float;
}

let depth (r : Compile.result) = r.Compile.metrics.Metrics.depth

let compile ?(patience = 5) ?(max_rounds = 50)
    ?(base = Compile.default_options) ~strategy device problem params =
  if patience < 1 || max_rounds < 1 then
    invalid_arg "Iterative.compile: patience and max_rounds must be >= 1";
  Qaoa_obs.Trace.with_span "core.iterative.compile"
    ~attrs:[ ("strategy", Qaoa_obs.Trace.str (Compile.strategy_name strategy)) ]
  @@ fun () ->
  let w0 = Qaoa_obs.Clock.wall () in
  let t0 = Sys.time () in
  let compile_round i =
    Compile.compile
      ~options:{ base with Compile.seed = base.Compile.seed + i }
      ~strategy device problem params
  in
  let first = compile_round 0 in
  let best = ref first in
  let best_depth = ref (depth first) in
  let rounds = ref 1 in
  let improvements = ref 0 in
  let stale = ref 0 in
  while !stale < patience && !rounds < max_rounds do
    let candidate = compile_round !rounds in
    incr rounds;
    let d = depth candidate in
    if d < !best_depth then begin
      best := candidate;
      best_depth := d;
      incr improvements;
      stale := 0
    end
    else incr stale
  done;
  {
    best = !best;
    rounds = !rounds;
    improvements = !improvements;
    total_wall_s = Qaoa_obs.Clock.wall () -. w0;
    total_cpu_s = Sys.time () -. t0;
  }
