type t = {
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create headers = { headers; rows = [] }

let add_row t row =
  let ncols = List.length t.headers in
  let n = List.length row in
  if n > ncols then invalid_arg "Table.add_row: too many cells";
  let row = row @ List.init (ncols - n) (fun _ -> "") in
  t.rows <- row :: t.rows

let float_cell ?(decimals = 3) v =
  if Float.is_nan v then "-" else Printf.sprintf "%.*f" decimals v

let add_float_row t label values =
  add_row t (label :: List.map (float_cell ~decimals:3) values)

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width c =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row c)))
      0 all
  in
  let widths = List.init ncols width in
  (* the label column is left-aligned, every value column right-aligned *)
  let pad i w s =
    let fill = String.make (w - String.length s) ' ' in
    if i = 0 then s ^ fill else fill ^ s
  in
  let render_row row =
    let cells = List.mapi (fun i cell -> pad i (List.nth widths i) cell) row in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "|"
    ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|"
  in
  String.concat "\n" (render_row t.headers :: rule :: List.map render_row rows)

let print t = print_endline (render t)
