let sum l = List.fold_left ( +. ) 0.0 l

let mean = function
  | [] -> Float.nan
  | l -> sum l /. float_of_int (List.length l)

let mean_array a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let std = function
  | [] -> Float.nan
  | l ->
    let m = mean l in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
    sqrt (sq /. float_of_int (List.length l))

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile_sorted_array p a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: rest ->
    List.fold_left
      (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
      (x, x) rest

let ratio a b = if b = 0.0 then Float.nan else a /. b
let percent_change ~from ~to_ = 100.0 *. (to_ -. from) /. from

let geometric_mean = function
  | [] -> Float.nan
  | l ->
    let logs = List.map log l in
    exp (mean logs)

let mean_of_int l = mean (List.map float_of_int l)
