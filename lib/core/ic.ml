module Gate = Qaoa_circuit.Gate
module Device = Qaoa_hardware.Device
module Profile = Qaoa_hardware.Profile
module Mapping = Qaoa_backend.Mapping
module Router = Qaoa_backend.Router
module Stitcher = Qaoa_backend.Stitcher
module Float_matrix = Qaoa_util.Float_matrix
module Rng = Qaoa_util.Rng
module Trace = Qaoa_obs.Trace
module Metrics_registry = Qaoa_obs.Metrics_registry

type config = {
  packing_limit : int option;
  variation_aware : bool;
  router : Router.config;
}

let default_config =
  {
    packing_limit = None;
    variation_aware = false;
    router = Router.default_config;
  }

(* The counting-sort bucket of distance [d]: its integer part, and
   [last] from [last] on (infinity included). *)
let[@inline] bucket ~last d =
  if d < 1.0 then 0 else if d < float_of_int last then int_of_float d else last

let form_layer ?packing_limit rng ~dist ~phys remaining =
  (match packing_limit with
  | Some l when l < 1 -> invalid_arg "Ic.form_layer: packing limit < 1"
  | _ -> ());
  (* Ascending distance, ties random: shuffle, then a stable sort, each
     pair's distance read once. *)
  let pairs = Array.of_list remaining in
  Rng.shuffle rng pairs;
  let k = Array.length pairs in
  let key = Array.make k 0.0 and top = ref 0 in
  for i = 0 to k - 1 do
    let a, b = pairs.(i) in
    key.(i) <- Float_matrix.get dist (phys a) (phys b);
    top := max !top (max a b)
  done;
  (* The sort: count the pairs into buckets by the integer part of their
     distance, then insertion-sort, moving a pair only past strictly
     greater distances.  Both steps are stable, so the order is exactly
     a stable sort's; on hop distances a bucket holds one distance and
     the insertion step moves nothing. *)
  let last = Float_matrix.size dist in
  let start = Array.make (last + 2) 0 in
  for i = 0 to k - 1 do
    let b = bucket ~last key.(i) + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to last + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = Array.make k 0 in
  for i = 0 to k - 1 do
    let b = bucket ~last key.(i) in
    order.(start.(b)) <- i;
    start.(b) <- start.(b) + 1
  done;
  for i = 1 to k - 1 do
    let x = order.(i) in
    let j = ref i in
    while !j > 0 && key.(order.(!j - 1)) > key.(x) do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- x
  done;
  let cap = Option.value ~default:max_int packing_limit in
  let used = Array.make (!top + 1) false in
  let layer = ref [] and rest = ref [] and size = ref 0 in
  Array.iter
    (fun i ->
      let ((a, b) as pair) = pairs.(i) in
      if !size < cap && (not used.(a)) && not used.(b) then begin
        used.(a) <- true;
        used.(b) <- true;
        layer := pair :: !layer;
        incr size
      end
      else rest := pair :: !rest)
    order;
  (List.rev !layer, List.rev !rest)

let compile ?(config = default_config) ?(measure = true) rng device ~initial
    problem params =
  Trace.with_span "core.ic.compile"
    ~attrs:
      [
        ("num_vars", Trace.int problem.Problem.num_vars);
        ("variation_aware", Trace.bool config.variation_aware);
        ( "packing_limit",
          match config.packing_limit with
          | Some l -> Trace.int l
          | None -> Trace.str "none" );
      ]
  @@ fun () ->
  let num_logical = problem.Problem.num_vars in
  let dist = Profile.distance_matrix ~variation_aware:config.variation_aware device in
  (* VIC's variation awareness extends to SWAP insertion: the backend
     scores swaps with the same reliability-weighted distances, so qubit
     movement also avoids unreliable couplings (cf. VQM, Sec. III). *)
  let config =
    if config.variation_aware then
      {
        config with
        router = { config.router with Router.reliability_aware = true };
      }
    else config
  in
  let p = Ansatz.levels params in
  let mapping = ref initial in
  let partials = ref [] in
  let route_partial layers =
    Metrics_registry.incr "ic.route_partials";
    let r =
      Router.route_layers ~config:config.router ~device ~initial:!mapping
        ~num_logical layers
    in
    mapping := r.Router.final_mapping;
    partials := r :: !partials
  in
  (* Hadamard wall at the initial mapping. *)
  route_partial [ List.init num_logical (fun q -> Gate.H q) ];
  for level = 0 to p - 1 do
    let gamma = params.Ansatz.gammas.(level) in
    let cphase = Ansatz.cphase_gate problem ~gamma in
    let rec cost_layers remaining =
      if remaining <> [] then begin
        Qaoa_obs.Deadline.check config.router.Router.deadline;
        let layer, rest =
          form_layer ?packing_limit:config.packing_limit rng ~dist
            ~phys:(Mapping.phys !mapping) remaining
        in
        if Qaoa_obs.Config.enabled () then begin
          Metrics_registry.incr "ic.layers_formed";
          Metrics_registry.observe "ic.layer_size"
            (float_of_int (List.length layer))
        end;
        route_partial [ List.map cphase layer ];
        cost_layers rest
      end
    in
    cost_layers (Problem.cphase_pairs problem);
    (* Linear terms are one-qubit and commute with the CPHASEs; emit them
       after the pair layers, then the mixer wall. *)
    (match Ansatz.linear_gates problem ~gamma with
    | [] -> ()
    | rzs -> route_partial [ rzs ]);
    route_partial [ Ansatz.mixer_gates problem ~beta:params.Ansatz.betas.(level) ]
  done;
  if measure then
    route_partial [ List.init num_logical (fun q -> Gate.Measure q) ];
  Stitcher.stitch_results (List.rev !partials)
