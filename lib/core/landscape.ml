type t = {
  gammas : float array;
  betas : float array;
  values : float array array;
}

let grid ?(gamma_points = 32) ?(beta_points = 32) problem =
  if gamma_points < 1 || beta_points < 1 then
    invalid_arg "Landscape.grid: need at least one point per axis";
  let gammas =
    Array.init gamma_points (fun i ->
        Float.pi *. float_of_int i /. float_of_int gamma_points)
  in
  let betas =
    Array.init beta_points (fun j ->
        Float.pi /. 2.0 *. float_of_int j /. float_of_int beta_points)
  in
  let evaluate =
    if Analytic.applies problem then begin
      let g = Problem.interaction_graph problem in
      fun ~gamma ~beta -> Analytic.expectation g ~gamma ~beta
    end
    else fun ~gamma ~beta ->
      Ansatz.expectation problem (Ansatz.params_p1 ~gamma ~beta)
  in
  let values =
    Array.map (fun gamma -> Array.map (fun beta -> evaluate ~gamma ~beta) betas) gammas
  in
  { gammas; betas; values }

let best t =
  let best = ref ((t.gammas.(0), t.betas.(0)), t.values.(0).(0)) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if v > snd !best then best := ((t.gammas.(i), t.betas.(j)), v))
        row)
    t.values;
  !best

let ascii t =
  let levels = " .:-=+*#%@" in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  Array.iter
    (Array.iter (fun v ->
         lo := Float.min !lo v;
         hi := Float.max !hi v))
    t.values;
  let span = Float.max 1e-12 (!hi -. !lo) in
  let nlevels = String.length levels in
  let buf = Buffer.create 1024 in
  (* one row per beta (descending so the plot reads like an x/y chart) *)
  for j = Array.length t.betas - 1 downto 0 do
    for i = 0 to Array.length t.gammas - 1 do
      let v = t.values.(i).(j) in
      let k =
        min (nlevels - 1)
          (int_of_float (float_of_int nlevels *. (v -. !lo) /. span))
      in
      Buffer.add_char buf levels.[k]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "gamma,beta,expectation\n";
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f,%.6f,%.6f\n" t.gammas.(i) t.betas.(j) v))
        row)
    t.values;
  Buffer.contents buf
