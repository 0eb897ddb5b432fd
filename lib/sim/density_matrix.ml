module Gate = Qaoa_circuit.Gate
module Circuit = Qaoa_circuit.Circuit
module Decompose = Qaoa_circuit.Decompose
module Calibration = Qaoa_hardware.Calibration

type t = { n : int; dim : int; re : float array; im : float array }

let create n =
  if n < 0 || n > 13 then invalid_arg "Density_matrix.create: 0 <= n <= 13";
  let dim = 1 lsl n in
  let re = Array.make (dim * dim) 0.0 and im = Array.make (dim * dim) 0.0 in
  re.(0) <- 1.0;
  { n; dim; re; im }

let num_qubits t = t.n

let of_statevector sv =
  let n = Statevector.num_qubits sv in
  let t = create n in
  for r = 0 to t.dim - 1 do
    let ar, ai = Statevector.amplitude sv r in
    for c = 0 to t.dim - 1 do
      let br, bi = Statevector.amplitude sv c in
      (* rho(r,c) = a conj(b) *)
      t.re.((r * t.dim) + c) <- (ar *. br) +. (ai *. bi);
      t.im.((r * t.dim) + c) <- (ai *. br) -. (ar *. bi)
    done
  done;
  t

let probability t i = t.re.((i * t.dim) + i)
let probabilities t = Array.init t.dim (probability t)

let trace t =
  let acc = ref 0.0 in
  for i = 0 to t.dim - 1 do
    acc := !acc +. probability t i
  done;
  !acc

let purity t =
  (* tr(rho^2) = sum_{r,c} |rho(r,c)|^2 for Hermitian rho *)
  let acc = ref 0.0 in
  for i = 0 to (t.dim * t.dim) - 1 do
    acc := !acc +. (t.re.(i) *. t.re.(i)) +. (t.im.(i) *. t.im.(i))
  done;
  !acc

(* Apply the 2x2 complex matrix [[a b];[c d]] to the index pairs
   (base, base + step) for base enumerated by [iter]. *)
let rotate_pairs re im (ar, ai) (br, bi) (cr, ci) (dr, di) iter step =
  iter (fun i ->
      let j = i + step in
      let xr = re.(i) and xi = im.(i) in
      let yr = re.(j) and yi = im.(j) in
      re.(i) <- (ar *. xr) -. (ai *. xi) +. (br *. yr) -. (bi *. yi);
      im.(i) <- (ar *. xi) +. (ai *. xr) +. (br *. yi) +. (bi *. yr);
      re.(j) <- (cr *. xr) -. (ci *. xi) +. (dr *. yr) -. (di *. yi);
      im.(j) <- (cr *. xi) +. (ci *. xr) +. (dr *. yi) +. (di *. yr))

(* Left multiplication rho <- U rho on qubit q: the row index carries the
   qubit bit; every column is an independent vector. *)
let apply_1q_left t q a b c d =
  let bit = 1 lsl q in
  let iter f =
    for r0 = 0 to t.dim - 1 do
      if r0 land bit = 0 then
        for col = 0 to t.dim - 1 do
          f ((r0 * t.dim) + col)
        done
    done
  in
  rotate_pairs t.re t.im a b c d iter (bit * t.dim)

(* Right multiplication rho <- rho U+ on qubit q: columns pair up and the
   applied matrix is conj(U). *)
let apply_1q_right t q (ar, ai) (br, bi) (cr, ci) (dr, di) =
  let bit = 1 lsl q in
  let iter f =
    for r = 0 to t.dim - 1 do
      for c0 = 0 to t.dim - 1 do
        if c0 land bit = 0 then f ((r * t.dim) + c0)
      done
    done
  in
  rotate_pairs t.re t.im (ar, -.ai) (br, -.bi) (cr, -.ci) (dr, -.di) iter bit

let conjugate_1q t q a b c d =
  apply_1q_left t q a b c d;
  apply_1q_right t q a b c d

(* Basis permutation pi (an involution on indices): rows then columns. *)
let conjugate_permutation t pi =
  let dim = t.dim in
  let swap arr i j =
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  in
  (* rows *)
  for r = 0 to dim - 1 do
    let pr = pi r in
    if pr > r then
      for c = 0 to dim - 1 do
        swap t.re ((r * dim) + c) ((pr * dim) + c);
        swap t.im ((r * dim) + c) ((pr * dim) + c)
      done
  done;
  (* columns *)
  for c = 0 to dim - 1 do
    let pc = pi c in
    if pc > c then
      for r = 0 to dim - 1 do
        swap t.re ((r * dim) + c) ((r * dim) + pc);
        swap t.im ((r * dim) + c) ((r * dim) + pc)
      done
  done

(* Diagonal unitary d(i) = (re, im): rho(r,c) <- d(r) rho(r,c) conj(d(c)). *)
let conjugate_diagonal t d =
  let dim = t.dim in
  for r = 0 to dim - 1 do
    let dr_re, dr_im = d r in
    for c = 0 to dim - 1 do
      let dc_re, dc_im = d c in
      (* phase = d(r) * conj(d(c)) *)
      let pr = (dr_re *. dc_re) +. (dr_im *. dc_im) in
      let pi_ = (dr_im *. dc_re) -. (dr_re *. dc_im) in
      let idx = (r * dim) + c in
      let xr = t.re.(idx) and xi = t.im.(idx) in
      t.re.(idx) <- (pr *. xr) -. (pi_ *. xi);
      t.im.(idx) <- (pr *. xi) +. (pi_ *. xr)
    done
  done

let apply_gate t g =
  match g with
  | Gate.H q ->
    let s = 1.0 /. sqrt 2.0 in
    conjugate_1q t q (s, 0.) (s, 0.) (s, 0.) (-.s, 0.)
  | Gate.X q -> conjugate_1q t q (0., 0.) (1., 0.) (1., 0.) (0., 0.)
  | Gate.Y q -> conjugate_1q t q (0., 0.) (0., -1.) (0., 1.) (0., 0.)
  | Gate.Z q -> conjugate_1q t q (1., 0.) (0., 0.) (0., 0.) (-1., 0.)
  | Gate.Rx (q, th) ->
    let c = cos (th /. 2.0) and s = sin (th /. 2.0) in
    conjugate_1q t q (c, 0.) (0., -.s) (0., -.s) (c, 0.)
  | Gate.Ry (q, th) ->
    let c = cos (th /. 2.0) and s = sin (th /. 2.0) in
    conjugate_1q t q (c, 0.) (-.s, 0.) (s, 0.) (c, 0.)
  | Gate.Rz (q, th) ->
    let c = cos (th /. 2.0) and s = sin (th /. 2.0) in
    conjugate_1q t q (c, -.s) (0., 0.) (0., 0.) (c, s)
  | Gate.Phase (q, th) ->
    conjugate_1q t q (1., 0.) (0., 0.) (0., 0.) (cos th, sin th)
  | Gate.Cnot (cq, tq) ->
    let cbit = 1 lsl cq and tbit = 1 lsl tq in
    conjugate_permutation t (fun i ->
        if i land cbit <> 0 then i lxor tbit else i)
  | Gate.Swap (a, b) ->
    let abit = 1 lsl a and bbit = 1 lsl b in
    conjugate_permutation t (fun i ->
        let ba = i land abit <> 0 and bb = i land bbit <> 0 in
        if ba = bb then i else i lxor abit lxor bbit)
  | Gate.Cphase (a, b, th) ->
    let abit = 1 lsl a and bbit = 1 lsl b in
    let cs = cos (th /. 2.0) and sn = sin (th /. 2.0) in
    conjugate_diagonal t (fun i ->
        let agree = (i land abit <> 0) = (i land bbit <> 0) in
        if agree then (cs, -.sn) else (cs, sn))
  | Gate.Barrier | Gate.Measure _ -> ()

let apply_circuit t c = List.iter (apply_gate t) (Circuit.gates c)

let copy t = { t with re = Array.copy t.re; im = Array.copy t.im }

let blend ~into ~weight other =
  Array.iteri (fun i x -> into.re.(i) <- into.re.(i) +. (weight *. x)) other.re;
  Array.iteri (fun i x -> into.im.(i) <- into.im.(i) +. (weight *. x)) other.im

let scale t w =
  Array.iteri (fun i x -> t.re.(i) <- x *. w) t.re;
  Array.iteri (fun i x -> t.im.(i) <- x *. w) t.im

let depolarize_with t paulis p =
  if p < 0.0 || p > 1.0 then invalid_arg "Density_matrix: bad error rate";
  if p > 0.0 then begin
    let k = List.length paulis in
    let original = copy t in
    scale t (1.0 -. p);
    List.iter
      (fun gates ->
        let branch = copy original in
        List.iter (apply_gate branch) gates;
        blend ~into:t ~weight:(p /. float_of_int k) branch)
      paulis
  end

let depolarize_1q t p q =
  depolarize_with t [ [ Gate.X q ]; [ Gate.Y q ]; [ Gate.Z q ] ] p

let depolarize_2q t p a b =
  let single = [| []; [ Gate.X a ]; [ Gate.Y a ]; [ Gate.Z a ] |] in
  let single_b = [| []; [ Gate.X b ]; [ Gate.Y b ]; [ Gate.Z b ] |] in
  let paulis = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> 0 || j <> 0 then paulis := (single.(i) @ single_b.(j)) :: !paulis
    done
  done;
  depolarize_with t !paulis p

let apply_noisy_circuit cal circuit =
  let c = Decompose.circuit circuit in
  let t = create (Circuit.num_qubits c) in
  let e1 = Calibration.single_qubit_error cal in
  List.iter
    (fun g ->
      apply_gate t g;
      match g with
      | Gate.Cnot (a, b) -> depolarize_2q t (Calibration.cnot_error cal a b) a b
      | Gate.Barrier | Gate.Measure _ -> ()
      | Gate.Cphase _ | Gate.Swap _ -> assert false
      | Gate.H q | Gate.X q | Gate.Y q | Gate.Z q | Gate.Rx (q, _)
      | Gate.Ry (q, _) | Gate.Rz (q, _) | Gate.Phase (q, _) ->
        if e1 > 0.0 then depolarize_1q t e1 q)
    (Circuit.gates c);
  t

let expectation_diag t f =
  let acc = ref 0.0 in
  for i = 0 to t.dim - 1 do
    let p = probability t i in
    if p <> 0.0 then acc := !acc +. (p *. f i)
  done;
  !acc
