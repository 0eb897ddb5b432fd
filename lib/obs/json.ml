type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e16 then Printf.sprintf "%.1f" v
  else
    (* %.17g round-trips every finite float; trimming is not worth the code *)
    Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v ->
    (* non-finite floats are not representable in strict JSON *)
    if Float.is_finite v then Buffer.add_string buf (float_repr v)
    else Buffer.add_string buf "null"
  | String s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- parser --- *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg cur.pos)

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | Some 'n' -> advance cur; Buffer.add_char buf '\n'; loop ()
      | Some 't' -> advance cur; Buffer.add_char buf '\t'; loop ()
      | Some 'r' -> advance cur; Buffer.add_char buf '\r'; loop ()
      | Some 'b' -> advance cur; Buffer.add_char buf '\b'; loop ()
      | Some 'f' -> advance cur; Buffer.add_char buf '\012'; loop ()
      | Some '/' -> advance cur; Buffer.add_char buf '/'; loop ()
      | Some '"' -> advance cur; Buffer.add_char buf '"'; loop ()
      | Some '\\' -> advance cur; Buffer.add_char buf '\\'; loop ()
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
        let hex = String.sub cur.src cur.pos 4 in
        cur.pos <- cur.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> fail cur "bad \\u escape"
        | Some code ->
          (* telemetry strings are ASCII; encode BMP code points as UTF-8 *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end);
        loop ()
      | _ -> fail cur "bad escape")
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek cur with Some c when is_num_char c -> true | _ -> false
  do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Assoc []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        fields := (k, v) :: !fields;
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; members ()
        | Some '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      members ();
      Assoc (List.rev !fields)
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value cur in
        items := v :: !items;
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; elements ()
        | Some ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Failure _ -> None

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
