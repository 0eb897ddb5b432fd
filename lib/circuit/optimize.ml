let two_pi = 2.0 *. Float.pi

(* A rotation of 0 (mod 2 pi) is the identity up to global phase. *)
let zero_angle theta =
  let r = Float.rem theta two_pi in
  Float.abs r < 1e-12 || Float.abs (Float.abs r -. two_pi) < 1e-12

let is_identity = function
  | Gate.Rx (_, a) | Gate.Ry (_, a) | Gate.Rz (_, a) | Gate.Phase (_, a)
  | Gate.Cphase (_, _, a) ->
    zero_angle a
  | _ -> false

(* How a new gate [g] interacts with the adjacent previous gate [prev]
   acting on exactly the same qubit set. *)
type interaction = Cancel | Replace of Gate.t | Keep

let combine prev g =
  match (prev, g) with
  | Gate.H a, Gate.H b when a = b -> Cancel
  | Gate.X a, Gate.X b when a = b -> Cancel
  | Gate.Y a, Gate.Y b when a = b -> Cancel
  | Gate.Z a, Gate.Z b when a = b -> Cancel
  | Gate.Cnot (c, t), Gate.Cnot (c', t') when c = c' && t = t' -> Cancel
  | Gate.Swap (a, b), Gate.Swap (a', b')
    when (a = a' && b = b') || (a = b' && b = a') ->
    Cancel
  | Gate.Rx (q, x), Gate.Rx (q', y) when q = q' -> Replace (Gate.Rx (q, x +. y))
  | Gate.Ry (q, x), Gate.Ry (q', y) when q = q' -> Replace (Gate.Ry (q, x +. y))
  | Gate.Rz (q, x), Gate.Rz (q', y) when q = q' -> Replace (Gate.Rz (q, x +. y))
  | Gate.Phase (q, x), Gate.Phase (q', y) when q = q' ->
    Replace (Gate.Phase (q, x +. y))
  | Gate.Cphase (a, b, x), Gate.Cphase (a', b', y)
    when (a = a' && b = b') || (a = b' && b = a') ->
    Replace (Gate.Cphase (a, b, x +. y))
  | _ -> Keep

type buffer = {
  mutable gates : Gate.t option array;  (** None = removed *)
  mutable len : int;
}

let push buf g =
  if buf.len = Array.length buf.gates then begin
    let bigger = Array.make (max 16 (2 * buf.len)) None in
    Array.blit buf.gates 0 bigger 0 buf.len;
    buf.gates <- bigger
  end;
  buf.gates.(buf.len) <- Some g;
  buf.len <- buf.len + 1

let kill buf i = buf.gates.(i) <- None

(* Index of the nearest earlier live gate [g] can merge with, looking
   through any gate that commutes with [g] ([Gate.commutes]: disjoint
   qubits, diagonal pairs, equal-axis rotations, CNOT control/target
   rules).  Soundness of acting at a distance: every gate between the
   partner and the buffer end commutes with [g], so [g] moves back
   adjacent to the partner; and because the commutation relation is a
   function of gate shape (constructor + qubits), never of angles, the
   merged gate commutes with exactly the gates [g] did, so [insert] may
   re-place it at the buffer end. *)
let merge_partner buf g qs =
  let sorted_qs = List.sort compare qs in
  let combinable prev =
    List.sort compare (Gate.qubits prev) = sorted_qs && combine prev g <> Keep
  in
  let rec scan j =
    if j < 0 then None
    else
      match buf.gates.(j) with
      | None -> scan (j - 1)
      | Some Gate.Barrier -> None
      | Some prev ->
        if combinable prev then Some j
        else if Gate.commutes prev g then scan (j - 1)
        else None
  in
  scan (buf.len - 1)

let rec insert buf g =
  if is_identity g then ()
  else
    match Gate.qubits g with
    | [] ->
      (* barrier: keep it; merge_partner stops at it on every qubit *)
      push buf g
    | qs -> (
      match merge_partner buf g qs with
      | Some i -> (
        match combine (Option.get buf.gates.(i)) g with
        | Cancel -> kill buf i
        | Replace merged ->
          kill buf i;
          insert buf merged
        | Keep -> assert false)
      | None -> push buf g)

let one_pass circuit =
  let n = Circuit.num_qubits circuit in
  let buf = { gates = Array.make 64 None; len = 0 } in
  List.iter (insert buf) (Circuit.gates circuit);
  let out = ref [] in
  for i = buf.len - 1 downto 0 do
    match buf.gates.(i) with Some g -> out := g :: !out | None -> ()
  done;
  Circuit.of_gates n !out

(* First-order redundancy locations, for the lint engine: pairs of gate
   indices (i, j) with i < j where gate j could cancel against or merge
   into gate i under the look-through notion [insert] uses, without
   rewriting anything.  [~through_commuting:false] restricts the
   look-through to the historical notion - disjoint qubits plus the
   diagonal-through-diagonal rule - which the lint engine uses to tell
   plainly-adjacent pairs (QL005) from pairs only a commutation-aware
   rewrite can reach (QL012). *)
let redundancies ?(through_commuting = true) circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let found = ref [] in
  Array.iteri
    (fun j g ->
      match Gate.qubits g with
      | [] -> ()
      | qs ->
        let sorted_qs = List.sort compare qs in
        let combinable prev =
          List.sort compare (Gate.qubits prev) = sorted_qs
          && combine prev g <> Keep
        in
        let diagonal = Gate.is_diagonal g in
        let see_through prev =
          if through_commuting then Gate.commutes prev g
          else
            (not (Gate.shares_qubit prev g))
            || (diagonal && Gate.is_diagonal prev)
        in
        let rec scan i =
          if i >= 0 then
            match gates.(i) with
            | Gate.Barrier -> ()
            | prev ->
              if combinable prev then found := (i, j) :: !found
              else if see_through prev then scan (i - 1)
        in
        scan (j - 1))
    gates;
  List.rev !found

type stats = { gates_before : int; gates_after : int; passes : int }

let with_stats circuit =
  let gates_before = Circuit.length circuit in
  let rec fixpoint c passes =
    let c' = one_pass c in
    if Circuit.length c' = Circuit.length c then (c', passes + 1)
    else fixpoint c' (passes + 1)
  in
  let optimized, passes = fixpoint circuit 0 in
  (optimized, { gates_before; gates_after = Circuit.length optimized; passes })

let circuit c = fst (with_stats c)
