type t =
  | H of int
  | X of int
  | Y of int
  | Z of int
  | Rx of int * float
  | Ry of int * float
  | Rz of int * float
  | Phase of int * float
  | Cnot of int * int
  | Cphase of int * int * float
  | Swap of int * int
  | Barrier
  | Measure of int

let qubits = function
  | H q | X q | Y q | Z q | Rx (q, _) | Ry (q, _) | Rz (q, _) | Phase (q, _)
  | Measure q ->
    [ q ]
  | Cnot (a, b) | Cphase (a, b, _) | Swap (a, b) -> [ a; b ]
  | Barrier -> []

let is_two_qubit = function
  | Cnot _ | Cphase _ | Swap _ -> true
  | H _ | X _ | Y _ | Z _ | Rx _ | Ry _ | Rz _ | Phase _ | Barrier
  | Measure _ ->
    false

let is_unitary = function
  | Barrier | Measure _ -> false
  | H _ | X _ | Y _ | Z _ | Rx _ | Ry _ | Rz _ | Phase _ | Cnot _ | Cphase _
  | Swap _ ->
    true

let shares_qubit a b =
  let qb = qubits b in
  List.exists (fun q -> List.mem q qb) (qubits a)

let is_diagonal = function
  | Z _ | Rz _ | Phase _ | Cphase _ -> true
  | _ -> false

let is_x_axis = function X _ | Rx _ -> true | _ -> false

(* Sound (not complete) commutation check for gates sharing qubits. *)
let commutes a b =
  if not (shares_qubit a b) then true
  else if not (is_unitary a) || not (is_unitary b) then false
  else if is_diagonal a && is_diagonal b then true
  else
    let same_axis =
      match (a, b) with
      | Rx (p, _), Rx (q, _)
      | Ry (p, _), Ry (q, _)
      | Rz (p, _), Rz (q, _)
      | Phase (p, _), Phase (q, _) ->
        p = q
      | X p, X q | Y p, Y q | Z p, Z q -> p = q
      | _ -> false
    in
    if same_axis then true
    else
      (* CNOT vs 1q gates: diagonal commutes through the control, X-axis
         through the target.  Check both argument orders. *)
      let cnot_commutes cnot other =
        match cnot with
        | Cnot (c, t) ->
          let qs = qubits other in
          (is_diagonal other && qs = [ c ]) || (is_x_axis other && qs = [ t ])
        | _ -> false
      in
      cnot_commutes a b || cnot_commutes b a

let map_qubits f = function
  | H q -> H (f q)
  | X q -> X (f q)
  | Y q -> Y (f q)
  | Z q -> Z (f q)
  | Rx (q, a) -> Rx (f q, a)
  | Ry (q, a) -> Ry (f q, a)
  | Rz (q, a) -> Rz (f q, a)
  | Phase (q, a) -> Phase (f q, a)
  | Cnot (c, t) -> Cnot (f c, f t)
  | Cphase (c, t, a) -> Cphase (f c, f t, a)
  | Swap (a, b) -> Swap (f a, f b)
  | Barrier -> Barrier
  | Measure q -> Measure (f q)

let name = function
  | H _ -> "h"
  | X _ -> "x"
  | Y _ -> "y"
  | Z _ -> "z"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | Phase _ -> "u1"
  | Cnot _ -> "cx"
  | Cphase _ -> "cphase"
  | Swap _ -> "swap"
  | Barrier -> "barrier"
  | Measure _ -> "measure"

let equal a b =
  match (a, b) with
  | H p, H q | X p, X q | Y p, Y q | Z p, Z q | Measure p, Measure q -> p = q
  | Rx (p, x), Rx (q, y)
  | Ry (p, x), Ry (q, y)
  | Rz (p, x), Rz (q, y)
  | Phase (p, x), Phase (q, y) ->
    p = q && Float.equal x y
  | Cnot (c, t), Cnot (c', t') | Swap (c, t), Swap (c', t') ->
    c = c' && t = t'
  | Cphase (c, t, x), Cphase (c', t', y) ->
    c = c' && t = t' && Float.equal x y
  | Barrier, Barrier -> true
  | ( ( H _ | X _ | Y _ | Z _ | Rx _ | Ry _ | Rz _ | Phase _ | Cnot _
      | Cphase _ | Swap _ | Barrier | Measure _ ),
      _ ) ->
    false

let pp ppf g =
  match g with
  | H q | X q | Y q | Z q | Measure q ->
    Format.fprintf ppf "%s q%d" (name g) q
  | Rx (q, a) | Ry (q, a) | Rz (q, a) | Phase (q, a) ->
    Format.fprintf ppf "%s(%.4f) q%d" (name g) a q
  | Cnot (c, t) | Swap (c, t) -> Format.fprintf ppf "%s q%d q%d" (name g) c t
  | Cphase (c, t, a) -> Format.fprintf ppf "cphase(%.4f) q%d q%d" a c t
  | Barrier -> Format.fprintf ppf "barrier"
