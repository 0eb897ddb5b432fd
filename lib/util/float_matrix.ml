type t = { n : int; data : float array }

let create n v = { n; data = Array.make (n * n) v }
let size t = t.n
(* Inlined across modules, so a distance read in a scoring loop boxes no
   float. *)
let[@inline] get t i j = t.data.((i * t.n) + j)
let set t i j v = t.data.((i * t.n) + j) <- v

let init n f =
  let t = create n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      set t i j (f i j)
    done
  done;
  t

let copy t = { n = t.n; data = Array.copy t.data }

let floyd_warshall w =
  let d = copy w in
  let n = d.n in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = get d i k in
      if dik < Float.infinity then
        for j = 0 to n - 1 do
          let through = dik +. get d k j in
          if through < get d i j then set d i j through
        done
    done
  done;
  d

let is_symmetric ?(eps = 1e-9) t =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      if Float.abs (get t i j -. get t j i) > eps then ok := false
    done
  done;
  !ok

let pp ppf t =
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      Format.fprintf ppf "%8.3f " (get t i j)
    done;
    Format.pp_print_newline ppf ()
  done
