module Rng = Qaoa_util.Rng

(* adjacency.(i) = [(j, coeff); ...] for quadratic terms touching i *)
let adjacency problem =
  let adj = Array.make problem.Problem.num_vars [] in
  List.iter
    (fun (i, j, c) ->
      adj.(i) <- (j, c) :: adj.(i);
      adj.(j) <- (i, c) :: adj.(j))
    problem.Problem.quadratic;
  adj

let linear_field problem =
  let h = Array.make problem.Problem.num_vars 0.0 in
  List.iter (fun (i, c) -> h.(i) <- h.(i) +. c) problem.Problem.linear;
  h

(* Flipping s_i negates every term containing s_i:
   delta = -2 s_i (h_i + sum_j c_ij s_j). *)
let delta_with adj h bits i =
  let si = Problem.spin bits i in
  let coupling =
    List.fold_left
      (fun acc (j, c) -> acc +. (c *. Problem.spin bits j))
      0.0 adj.(i)
  in
  -2.0 *. si *. (h.(i) +. coupling)

let flip_delta problem bits i =
  delta_with (adjacency problem) (linear_field problem) bits i

let random_bits rng n = if n = 0 then 0 else Rng.int rng (1 lsl n)

let random_sampling rng ?(samples = 1024) problem =
  let n = problem.Problem.num_vars in
  let best = ref (random_bits rng n) in
  let best_cost = ref (Problem.cost problem !best) in
  for _ = 2 to samples do
    let b = random_bits rng n in
    let c = Problem.cost problem b in
    if c > !best_cost then begin
      best := b;
      best_cost := c
    end
  done;
  (!best, !best_cost)

let local_search rng problem =
  let n = problem.Problem.num_vars in
  let adj = adjacency problem and h = linear_field problem in
  let run () =
    let bits = ref (random_bits rng n) in
    let cost = ref (Problem.cost problem !bits) in
    let improved = ref true in
    while !improved do
      improved := false;
      (* steepest ascent: flip the best positive-delta bit *)
      let best_i = ref (-1) and best_d = ref 1e-12 in
      for i = 0 to n - 1 do
        let d = delta_with adj h !bits i in
        if d > !best_d then begin
          best_i := i;
          best_d := d
        end
      done;
      if !best_i >= 0 then begin
        bits := !bits lxor (1 lsl !best_i);
        cost := !cost +. !best_d;
        improved := true
      end
    done;
    (!bits, !cost)
  in
  let first = run () in
  List.fold_left
    (fun ((_, bc) as best) _ ->
      let (_, c) as cand = run () in
      if c > bc then cand else best)
    first
    (List.init 7 Fun.id)

let simulated_annealing rng problem =
  let n = problem.Problem.num_vars in
  if n = 0 then (0, Problem.cost problem 0)
  else begin
  let adj = adjacency problem and h = linear_field problem in
  let steps = 20 * (1 lsl min n 10) in
  let t_end = 1e-3 in
  let t_start =
    (* scale: the largest single-flip |delta| from a random state *)
    let bits = random_bits rng n in
    let m = ref 1.0 in
    for i = 0 to n - 1 do
      m := Float.max !m (Float.abs (delta_with adj h bits i))
    done;
    !m
  in
  let bits = ref (random_bits rng n) in
  let cost = ref (Problem.cost problem !bits) in
  let best = ref !bits and best_cost = ref !cost in
  let cooling =
    if steps <= 1 then 1.0 else (t_end /. t_start) ** (1.0 /. float_of_int (steps - 1))
  in
  let temp = ref t_start in
  for _ = 1 to steps do
    let i = Rng.int rng n in
    let d = delta_with adj h !bits i in
    if d >= 0.0 || Rng.float rng 1.0 < exp (d /. !temp) then begin
      bits := !bits lxor (1 lsl i);
      cost := !cost +. d;
      if !cost > !best_cost then begin
        best := !bits;
        best_cost := !cost
      end
    end;
    temp := !temp *. cooling
  done;
  (!best, !best_cost)
  end
