(* The two library-caller workloads: [paper-compile] (the paper's
   evaluation grid, oracles off) and [checked-compile] (verify, analyze
   and lint on).  Both are closed loops on one domain: each
   [Compile.compile_result] call starts when the previous one returned,
   as for any library caller.  The instance list is a pure function of
   the seed and the run length, stratified over the grid cells so every
   seed draws the same mix and only the graphs differ.  Compiles run in
   timed chunks; checks run between chunks, outside the timed region. *)

module Compile = Qaoa_core.Compile
module Problem = Qaoa_core.Problem
module Ansatz = Qaoa_core.Ansatz
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Profile = Qaoa_hardware.Profile
module Workload = Qaoa_experiments.Workload
module Graph = Qaoa_graph.Graph
module Rng = Qaoa_util.Rng
module Check = Qaoa_verify.Check
module Dataflow = Qaoa_analysis.Dataflow
module Decompose = Qaoa_circuit.Decompose
module Metrics = Qaoa_circuit.Metrics

let now = Unix.gettimeofday
let params = Workload.default_params

type devices = {
  tokyo : Device.t;
  tokyo_cal : Device.t;  (** tokyo with a seeded synthetic calibration, for VIC *)
  melbourne : Device.t;  (** ships the paper's calibration snapshot *)
  grid : Device.t;
  ring : Device.t;
}

let build_devices () =
  {
    tokyo = Topologies.ibmq_20_tokyo ();
    tokyo_cal =
      Device.with_random_calibration (Rng.create 5) (Topologies.ibmq_20_tokyo ());
    melbourne = Topologies.ibmq_16_melbourne ();
    grid = Topologies.grid_6x6 ();
    ring = Topologies.ring 8;
  }

let device_list d = [ d.tokyo; d.tokyo_cal; d.melbourne; d.grid; d.ring ]

let prepare () =
  let d = build_devices () in
  List.iter Profile.precompute (device_list d);
  d

(* Set-up as a library caller's program pays it: a fresh process of
   this executable ([main.exe setup-probe]) that starts, builds the
   devices, warms their distance matrices and exits; the median of
   [reps] spawns.  Timed in-process, the same sub-millisecond work
   swings by tens of percent from run to run on a virtual machine; a
   whole process start is steady. *)
let time_setup ~reps =
  let dir = Proc.scratch_dir () in
  let log = Filename.concat dir "setup.log" in
  let once () =
    let t0 = now () in
    let child = Proc.spawn ~stderr_path:log Sys.executable_name [ "setup-probe" ] in
    match Proc.wait ~timeout_s:30.0 child with
    | Some (Unix.WEXITED 0) -> Ok (now () -. t0)
    | st -> Error (Proc.describe_status st)
  in
  let runs = List.init reps (fun _ -> once ()) in
  Proc.remove_dir dir;
  match List.find_map (function Error e -> Some e | Ok _ -> None) runs with
  | Some e -> Error ("setup probe: " ^ e)
  | None -> Ok (Stats.median (List.filter_map Result.to_option runs))

(* [Profile.precompute] of freshly built devices, median of [reps]. *)
let precompute_s ~reps =
  Stats.median
    (List.init reps (fun _ ->
         let d = build_devices () in
         let t0 = now () in
         List.iter Profile.precompute (device_list d);
         now () -. t0))

type cell = {
  label : string;
  device : devices -> Device.t;
  kind : Workload.graph_kind;
  sizes : int array;
  strategy : Compile.strategy;
}

let range lo hi step = Array.init (((hi - lo) / step) + 1) (fun k -> lo + (k * step))
let calibration_free = Compile.[ Naive; Greedy_v; Greedy_e; Qaim; Ip; Ic None ]

(* The calibration-free policies on [device] and VIC on [cal_device],
   for every (graph kind, sizes). *)
let cells_for ~device_name ~device ~cal_device kinds =
  List.concat_map
    (fun (kind, sizes) ->
      let cell strategy device =
        {
          label =
            Printf.sprintf "%s/%s/%s" device_name (Workload.kind_name kind)
              (Compile.strategy_name strategy);
          device;
          kind;
          sizes;
          strategy;
        }
      in
      List.map (fun s -> cell s device) calibration_free
      @ [ cell (Compile.Vic None) cal_device ])
    kinds

let single ~label ~device ~kind ~n strategies =
  List.map
    (fun strategy ->
      {
        label = label ^ "/" ^ Compile.strategy_name strategy;
        device;
        kind;
        sizes = [| n |];
        strategy;
      })
    strategies

(* The paper's evaluation grid (Figs. 7-12 and the Sec. VI ring). *)
let paper_cells =
  let tokyo_n = range 12 20 1 in
  cells_for ~device_name:"tokyo"
    ~device:(fun d -> d.tokyo)
    ~cal_device:(fun d -> d.tokyo_cal)
    Workload.
      [
        (Erdos_renyi 0.3, tokyo_n);
        (Erdos_renyi 0.5, tokyo_n);
        (Erdos_renyi 0.7, tokyo_n);
        (Regular 3, range 12 20 2);
        (Regular 6, tokyo_n);
      ]
  @ cells_for ~device_name:"melbourne"
      ~device:(fun d -> d.melbourne)
      ~cal_device:(fun d -> d.melbourne)
      [ (Workload.Erdos_renyi 0.5, [| 14 |]) ]
  @ single ~label:"grid6x6/15-regular"
      ~device:(fun d -> d.grid)
      ~kind:(Workload.Regular 15) ~n:36
      Compile.[ Ic None; Ic (Some 11) ]
  @ single ~label:"ring8/G(n,m=8)"
      ~device:(fun d -> d.ring)
      ~kind:(Workload.Gnm 8) ~n:8 calibration_free
  |> Array.of_list

(* The [--verify --analyze --lint] path: tokyo and melbourne, n uniform
   over every size the device holds from 8 up to 20. *)
let checked_cells =
  let kinds sizes =
    Workload.[ (Erdos_renyi 0.3, sizes); (Erdos_renyi 0.5, sizes); (Erdos_renyi 0.7, sizes) ]
  in
  cells_for ~device_name:"tokyo"
    ~device:(fun d -> d.tokyo)
    ~cal_device:(fun d -> d.tokyo_cal)
    (kinds (range 8 20 1))
  @ cells_for ~device_name:"melbourne"
      ~device:(fun d -> d.melbourne)
      ~cal_device:(fun d -> d.melbourne)
      (kinds (range 8 15 1))
  |> Array.of_list

type spec = {
  cells : cell array;
  checked : bool;  (** verify, analyze and lint on *)
  per_second : float;
      (** compiles per second on the reference host (2-core x86-64):
          sizes the run so it lasts about [--seconds] there, while the
          inputs stay a pure function of the seed and the run length *)
  lb_rounds : int;
      (** unchecked workload: the depth lower bound is computed outside
          the timed region on the first [lb_rounds] instances of every
          cell except the 36-qubit grid, whose analysis alone takes
          0.3-0.7 s per circuit *)
  chunk : int;
      (** compiles per timed chunk, a whole number of rounds over the
          cells so every chunk carries the same mix; throughput is the
          median over chunks, which a few seconds of interference from
          other load on the host does not move *)
}

let paper =
  { cells = paper_cells; checked = false; per_second = 1000.0; lb_rounds = 4; chunk = 200 }

let checked =
  { cells = checked_cells; checked = true; per_second = 110.0; lb_rounds = 0; chunk = 84 }

let mix seed i = ((seed * 1_000_003) + (i * 7919) + 17) land 0x3FFF_FFFF

type instance = {
  cell : cell;
  device : Device.t;
  problem : Problem.t;
  options : Compile.options;
  descr : string;  (** canonical text of the input, for the digest *)
}

(* Random relabelings of the d-regular circulant.  At degree 6 and up
   the configuration model behind [Generators.random_regular] almost
   never pairs its stubs into a simple graph, so after 1000 rejected
   pairings (tens of milliseconds) it returns this very circulant; the
   suite draws the same family directly, relabeled per instance. *)
let relabeled_circulant rng ~n ~d =
  let perm = Rng.permutation rng n in
  let edges = ref [] in
  let add u v = edges := (min perm.(u) perm.(v), max perm.(u) perm.(v)) :: !edges in
  for v = 0 to n - 1 do
    for k = 1 to d / 2 do
      add v ((v + k) mod n)
    done;
    if d mod 2 = 1 && v < n / 2 then add v (v + (n / 2))
  done;
  Graph.of_edges n !edges

let graph rng kind ~n =
  match kind with
  | Workload.Regular d when d >= 6 -> relabeled_circulant rng ~n ~d
  | _ -> Workload.graph rng kind ~n

let instance spec devices ~seed i =
  let nc = Array.length spec.cells in
  let cell = spec.cells.(i mod nc) in
  let n = cell.sizes.(i / nc mod Array.length cell.sizes) in
  let rng = Rng.create (mix seed i) in
  let rec draw () =
    let g = graph rng cell.kind ~n in
    if Graph.num_edges g = 0 then draw () else g
  in
  let g = draw () in
  let options =
    {
      Compile.default_options with
      seed = mix (seed + 1) i;
      verify = spec.checked;
      analyze = spec.checked;
      lint = spec.checked;
    }
  in
  let edges = List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Graph.edges g) in
  let descr =
    Printf.sprintf "%s|%d|%d|%s" cell.label n options.Compile.seed (String.concat "," edges)
  in
  { cell; device = cell.device devices; problem = Problem.of_maxcut g; options; descr }

(* ------------------------------------------------------------------ *)

(* One pass over the inputs: its check, its spans when traced, and
   what it measured. *)
type pass = {
  spans : Span.t option;
  check : int -> instance -> (Compile.result, Compile.error) result -> unit;
  latencies : float array;  (** seconds per compile call *)
  mutable chunks : (int * float) list;  (** (compiles, seconds) per chunk, newest first *)
  mutable digest : Digest.t;  (** of the inputs it generated *)
}

let pass ?spans ~count check =
  { spans; check; latencies = Array.make count 0.0; chunks = []; digest = Digest.string "" }

let wall p = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 p.chunks
let rates p = List.map (fun (k, dt) -> float_of_int k /. dt) p.chunks

(* Hang the phase breakdown the compiler recorded under the
   [bench.compile] span that just closed, in execution order. *)
let add_phases t (r : Compile.result) =
  let parent = Span.last t in
  ignore
    (List.fold_left
       (fun start (p : Compile.phase_time) ->
         let name = "core.compile." ^ p.Compile.phase in
         ignore (Span.add t ~parent name ~start ~dur:p.Compile.wall_s : int);
         start +. p.Compile.wall_s)
       (Span.start t parent) r.Compile.phase_times
      : float)

(* Compile one chunk of [p]'s inputs under the clock. *)
let compile_chunk p spec devices ~seed ~base k =
  let insts = Array.init k (fun j -> instance spec devices ~seed (base + j)) in
  Array.iter (fun i -> p.digest <- Digest.string (p.digest ^ i.descr)) insts;
  let tracer = match p.spans with Some t -> Span.traced t | None -> Span.untraced in
  let t0 = now () in
  let results =
    Array.mapi
      (fun j inst ->
        let c0 = now () in
        let r =
          tracer.span "bench.compile" (fun () ->
              Compile.compile_result ~options:inst.options ~strategy:inst.cell.strategy
                inst.device inst.problem params)
        in
        p.latencies.(base + j) <- now () -. c0;
        (match (p.spans, r) with Some t, Ok r -> add_phases t r | _ -> ());
        r)
      insts
  in
  p.chunks <- (k, now () -. t0) :: p.chunks;
  (insts, results)

(* Run [passes] chunk by chunk: for each chunk, every pass in turn
   generates the chunk's inputs afresh and compiles them under the
   clock; then each pass checks its results outside the timed region.
   Interleaving by chunk keeps a traced pass next to the untraced one in
   time, so the host's drifting speed does not swamp the tracing
   overhead. *)
let run_passes spec devices ~seed ~count passes =
  let base = ref 0 in
  while !base < count do
    let k = min spec.chunk (count - !base) in
    let compiled =
      List.map (fun p -> compile_chunk p spec devices ~seed ~base:!base k) passes
    in
    List.iter2
      (fun p (insts, results) ->
        Array.iteri (fun j inst -> p.check (!base + j) inst results.(j)) insts)
      passes compiled;
    base := !base + k
  done

(* Translation validation against the logical ansatz: the statevector
   oracle up to 12 logical qubits, phase polynomials past that.  A
   skipped semantic stage counts as a failure. *)
let validate ~device ~problem ~measure ?(params = params) (r : Compile.result) =
  let report =
    Check.validate ~device ~initial:r.Compile.initial_mapping ~final:r.Compile.final_mapping
      ~swap_count:r.Compile.swap_count
      ~logical:(Ansatz.circuit ~measure problem params)
      r.Compile.circuit
  in
  match report.Check.semantic with
  | _ when not (Check.ok report) -> Error (Check.report_to_string report)
  | Check.Skipped why -> Error ("semantic check skipped: " ^ why)
  | Check.Checked _ -> Ok ()

let lower_bound (r : Compile.result) =
  match r.Compile.static with
  | Some s -> s.Dataflow.lower_bound
  | None -> (Dataflow.analyze (Decompose.circuit r.Compile.circuit)).Dataflow.lower_bound

type record = { depth : int; gates : int; swaps : int }

let record_of (r : Compile.result) =
  let m = r.Compile.metrics in
  { depth = m.Metrics.depth; gates = m.Metrics.gate_count; swaps = r.Compile.swap_count }

(* The traced pass: the same inputs again with spans, each result
   repeating the untraced one exactly. *)
let traced_pass tally ~count ~records =
  let recheck i inst result =
    let what = Printf.sprintf "compile %d (%s)" i inst.cell.label in
    match (result, records.(i)) with
    | Ok r, Some expected ->
      if record_of r <> expected then Report.fail_op tally i (what ^ " is not deterministic")
    | Error _, None -> ()
    | _ -> Report.fail_op tally i (what ^ " changed outcome when traced")
  in
  pass ~spans:(Span.create ()) ~count recheck

(* Per-layer metrics from the traced pass, checking that it saw the
   untraced pass's inputs and that its spans cover the compile time. *)
let per_layer tally ~measured ~traced t =
  if traced.digest <> measured.digest then
    Report.fail_run tally "traced run generated different inputs";
  let sums = Span.summaries t in
  let self name = match List.assoc_opt name sums with Some s -> s.Span.self_s | None -> 0.0 in
  let compile_total =
    match List.assoc_opt "bench.compile" sums with Some s -> s.Span.total_s | None -> 0.0
  in
  let share x = if compile_total > 0.0 then x /. compile_total else 0.0 in
  let unattributed = share (self "bench.compile") in
  if unattributed > 0.10 then
    Report.fail_run tally
      (Printf.sprintf "compile phases cover only %.1f%% of compile time"
         (100. *. (1. -. unattributed)));
  let covered = compile_total /. wall traced in
  if covered < 0.90 then
    Report.fail_run tally
      (Printf.sprintf "compile spans cover only %.1f%% of the timed wall" (100. *. covered));
  let phases =
    List.concat_map
      (fun p ->
        let s = self ("core.compile." ^ p) in
        [
          (Printf.sprintf "core.compile.%s.self_s" p, s);
          (Printf.sprintf "core.compile.%s.share" p, share s);
        ])
      Report.compile_phases
  in
  let slowdowns = List.map2 (fun (_, dt) (_, du) -> dt /. du) traced.chunks measured.chunks in
  phases
  @ [
      ("core.compile.unattributed_share", unattributed);
      ("bench.trace_overhead", Stats.median slowdowns -. 1.0);
    ]

let run spec ~seed ~seconds ~traced =
  let tally = Report.tally () in
  let setup_reps = 9 in
  let setup_s =
    match time_setup ~reps:setup_reps with
    | Ok s -> s
    | Error e ->
      Report.fail_run tally e;
      0.0
  in
  let devices = prepare () in
  let count = max 1 (int_of_float (spec.per_second *. float_of_int seconds)) in
  let nc = Array.length spec.cells in
  let records = Array.make count None in
  let lb_ratios = ref [] and swaps_total = ref 0 and findings_total = ref 0 in
  let check i inst result =
    tally.Report.attempted <- tally.Report.attempted + 1;
    let what = Printf.sprintf "compile %d (%s)" i inst.cell.label in
    match result with
    | Error e -> Report.fail_op tally i (what ^ ": " ^ Compile.error_to_string e)
    | Ok r -> (
      let rc = record_of r in
      records.(i) <- Some rc;
      swaps_total := !swaps_total + rc.swaps;
      findings_total := !findings_total + List.length r.Compile.lint_findings;
      (match
         validate ~device:inst.device ~problem:inst.problem
           ~measure:inst.options.Compile.measure r
       with
      | Ok () -> ()
      | Error why -> Report.fail_op tally i (what ^ " rejected: " ^ why));
      let in_lb_sample =
        spec.checked || (i / nc < spec.lb_rounds && inst.cell.device devices != devices.grid)
      in
      if in_lb_sample then
        let lb = lower_bound r in
        if lb < 1 || lb > rc.depth then
          Report.fail_op tally i
            (Printf.sprintf "%s: lower bound %d vs depth %d" what lb rc.depth)
        else lb_ratios := (float_of_int rc.depth /. float_of_int lb) :: !lb_ratios)
  in
  let measured = pass ~count check in
  let traced = if traced then Some (traced_pass tally ~count ~records) else None in
  run_passes spec devices ~seed ~count (measured :: Option.to_list traced);
  Printf.eprintf "bench: %d compiles in %.2f s\n%!" count (wall measured);
  let rss = Option.value (Host.vm_hwm_mb None) ~default:0.0 in
  let lat_ms = List.map (fun s -> 1e3 *. s) (Array.to_list measured.latencies) in
  let ok = List.filter_map Fun.id (Array.to_list records) in
  let geomean f = Stats.geomean (List.map (fun r -> float_of_int (f r)) ok) in
  let e2e =
    [
      ("latency_p50_ms", Stats.quantile lat_ms 0.5);
      ("latency_p95_ms", Stats.quantile lat_ms 0.95);
      ("throughput_ops_per_s", Stats.median (rates measured));
      ("setup_s", setup_s);
      ("peak_rss_mb", rss);
      ("depth_geomean", geomean (fun r -> r.depth));
      ("gate_count_geomean", geomean (fun r -> r.gates));
      ("depth_over_lb_geomean", Stats.geomean !lb_ratios);
    ]
  in
  let samples =
    [
      ("compiles", count);
      ("lower_bound_sample", List.length !lb_ratios);
      ("setup_reps", setup_reps);
    ]
  in
  let spans, per_layer =
    match traced with
    | Some ({ spans = Some t; _ } as traced) ->
      ( Some t,
        per_layer tally ~measured ~traced t
        @ [
            ("backend.router.swaps_total", float_of_int !swaps_total);
            ("analysis.lint.findings_total", float_of_int !findings_total);
            ("hardware.profile.precompute_s", precompute_s ~reps:setup_reps);
          ] )
    | _ -> (None, [])
  in
  let digest = Digest.to_hex measured.digest in
  { Report.tally; values = e2e @ per_layer; samples; digest; spans }
