module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Decompose = Qaoa_circuit.Decompose
module Calibration = Qaoa_hardware.Calibration
module Success = Qaoa_hardware.Success

type entry = { label : string; count : int; log_loss : float }

type t = {
  by_kind : entry list;
  by_coupling : entry list;
  total_log_loss : float;
  success_probability : float;
}

let analyze cal circuit =
  let charge_1q = Calibration.single_qubit_error cal > 0.0 in
  let kind_tbl = Hashtbl.create 4 in
  let coupling_tbl = Hashtbl.create 32 in
  let charge tbl key loss =
    let count, acc = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (count + 1, acc +. loss)
  in
  List.iter
    (fun g ->
      (* each lowered CNOT is charged to the routed gate it came from *)
      let source =
        match g with
        | Gate.Cphase _ -> "cphase-cnot"
        | Gate.Swap _ -> "swap-cnot"
        | _ -> "cnot"
      in
      List.iter
        (fun b ->
          let loss = Success.log_gate cal b in
          match b with
          | Gate.Cnot (u, v) ->
            charge kind_tbl source loss;
            charge coupling_tbl (Printf.sprintf "(%d,%d)" (min u v) (max u v)) loss
          | Gate.Barrier | Gate.Measure _ -> ()
          | _ -> if charge_1q then charge kind_tbl "1q" loss)
        (Decompose.gate g))
    (Circuit.gates circuit);
  let entries tbl =
    Hashtbl.fold
      (fun label (count, log_loss) acc -> { label; count; log_loss } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.log_loss b.log_loss)
  in
  let by_kind = entries kind_tbl in
  let by_coupling = entries coupling_tbl in
  let total_log_loss =
    List.fold_left (fun acc e -> acc +. e.log_loss) 0.0 by_kind
  in
  {
    by_kind;
    by_coupling;
    total_log_loss;
    success_probability = exp total_log_loss;
  }

let worst_couplings t = List.filteri (fun i _ -> i < 5) t.by_coupling

let pp ppf t =
  Format.fprintf ppf "success probability: %.3e@." t.success_probability;
  Format.fprintf ppf "loss by gate kind:@.";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-12s x%-4d %6.3f (%.1f%% of loss)@." e.label
        e.count e.log_loss
        (100.0 *. e.log_loss /. t.total_log_loss))
    t.by_kind;
  Format.fprintf ppf "worst couplings:@.";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-8s x%-4d %6.3f@." e.label e.count e.log_loss)
    (worst_couplings t)
