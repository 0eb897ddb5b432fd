module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators

let tokyo_edges =
  (* Rows, columns and diagonal couplings of the 4x5 ibmq_20_tokyo lattice
     (reconstruction following Li et al., ASPLOS'19). *)
  [
    (* rows *)
    (0, 1); (1, 2); (2, 3); (3, 4);
    (5, 6); (6, 7); (7, 8); (8, 9);
    (10, 11); (11, 12); (12, 13); (13, 14);
    (15, 16); (16, 17); (17, 18); (18, 19);
    (* columns *)
    (0, 5); (5, 10); (10, 15);
    (1, 6); (6, 11); (11, 16);
    (2, 7); (7, 12); (12, 17);
    (3, 8); (8, 13); (13, 18);
    (4, 9); (9, 14); (14, 19);
    (* diagonals *)
    (1, 7); (2, 6);
    (3, 9); (4, 8);
    (5, 11); (6, 10);
    (7, 13); (8, 12);
    (11, 17); (12, 16);
    (13, 19); (14, 18);
  ]

let ibmq_20_tokyo () =
  Device.create ~name:"ibmq_20_tokyo" (Graph.of_edges 20 tokyo_edges)

(* CNOT error rates transcribed from Fig. 10(a) (calibration of 4/8/2020).
   The rate multiset is faithful to the figure; per-edge placement is a
   best-effort reading. *)
let melbourne_calibration_data =
  [
    (0, 1, 1.87e-2);
    (1, 2, 1.77e-2);
    (2, 3, 1.54e-2);
    (3, 4, 8.60e-2);
    (4, 5, 5.80e-2);
    (5, 6, 2.96e-2);
    (0, 14, 2.85e-2);
    (1, 13, 7.63e-2);
    (2, 12, 2.26e-2);
    (3, 11, 5.03e-2);
    (4, 10, 7.78e-2);
    (5, 9, 4.11e-2);
    (6, 8, 3.46e-2);
    (14, 13, 8.29e-2);
    (13, 12, 7.63e-2);
    (12, 11, 4.16e-2);
    (11, 10, 3.68e-2);
    (10, 9, 4.70e-2);
    (9, 8, 3.89e-2);
    (8, 7, 2.87e-2);
  ]

let ibmq_16_melbourne () =
  let edges = List.map (fun (u, v, _) -> (u, v)) melbourne_calibration_data in
  let calibration =
    Calibration.create ~single_qubit_error:1e-3 ~readout_error:3e-2
      melbourne_calibration_data
  in
  Device.create ~calibration ~name:"ibmq_16_melbourne"
    (Graph.of_edges 15 edges)

let grid ~rows ~cols =
  Device.create
    ~name:(Printf.sprintf "grid_%dx%d" rows cols)
    (Generators.grid ~rows ~cols)

let grid_6x6 () = grid ~rows:6 ~cols:6

let linear n =
  Device.create ~name:(Printf.sprintf "linear_%d" n) (Generators.path n)

let ring n =
  Device.create ~name:(Printf.sprintf "ring_%d" n) (Generators.cycle n)

let heavy_hex_27_edges =
  (* Falcon r4 heavy-hex coupling map (ibmq_montreal / mumbai). *)
  [
    (0, 1); (1, 2); (1, 4); (2, 3); (3, 5); (4, 7); (5, 8); (6, 7);
    (7, 10); (8, 9); (8, 11); (10, 12); (11, 14); (12, 13); (12, 15);
    (13, 14); (14, 16); (15, 18); (16, 19); (17, 18); (18, 21); (19, 20);
    (19, 22); (21, 23); (22, 25); (23, 24); (24, 25); (25, 26);
  ]

let heavy_hex_27 () =
  Device.create ~name:"heavy_hex_27" (Graph.of_edges 27 heavy_hex_27_edges)

let hypothetical_6q () =
  (* Fig. 6(a,b): 6-qubit ring with a (1,4) chord; CPHASE success rates
     are given directly, so store CNOT error = 1 - sqrt(R). *)
  let cphase_rates =
    [
      (0, 1, 0.90); (0, 5, 0.82); (1, 2, 0.85); (1, 4, 0.81);
      (2, 3, 0.89); (3, 4, 0.88); (4, 5, 0.84);
    ]
  in
  let edges = List.map (fun (u, v, _) -> (u, v)) cphase_rates in
  let calibration =
    Calibration.create ~single_qubit_error:0.0
      (List.map (fun (u, v, r) -> (u, v, 1.0 -. sqrt r)) cphase_rates)
  in
  Device.create ~calibration ~name:"hypothetical_6q" (Graph.of_edges 6 edges)

let known_names =
  [
    "tokyo"; "melbourne"; "grid6x6"; "heavyhex27"; "hypothetical6q";
    "linear<N>"; "ring<N>";
  ]

let max_qubits = 256

let by_name name =
  (* only the canonical decimal spelling of N: "linear08" or
     "linear0x8" would otherwise name the same device again *)
  let prefixed p =
    if String.starts_with ~prefix:p name then
      let suffix =
        String.sub name (String.length p) (String.length name - String.length p)
      in
      Option.bind (int_of_string_opt suffix) (fun n ->
          if string_of_int n = suffix then Some n else None)
    else None
  in
  match name with
  | "tokyo" | "ibmq_20_tokyo" -> Some (ibmq_20_tokyo ())
  | "melbourne" | "ibmq_16_melbourne" -> Some (ibmq_16_melbourne ())
  | "grid6x6" -> Some (grid_6x6 ())
  | "heavyhex27" | "heavy_hex_27" -> Some (heavy_hex_27 ())
  | "hypothetical6q" -> Some (hypothetical_6q ())
  | _ -> (
    match prefixed "linear" with
    | Some n when n > 0 && n <= max_qubits -> Some (linear n)
    | _ -> (
      match prefixed "ring" with
      | Some n when n >= 3 && n <= max_qubits -> Some (ring n)
      | _ -> None))
