(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks ([q] in [0, 1]); 0 for an
   empty sample. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))
