let statement buf g =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ ";\n")) fmt in
  match g with
  | Gate.H q -> add "h q[%d]" q
  | Gate.X q -> add "x q[%d]" q
  | Gate.Y q -> add "y q[%d]" q
  | Gate.Z q -> add "z q[%d]" q
  | Gate.Rx (q, a) -> add "rx(%.12g) q[%d]" a q
  | Gate.Ry (q, a) -> add "ry(%.12g) q[%d]" a q
  | Gate.Rz (q, a) -> add "rz(%.12g) q[%d]" a q
  | Gate.Phase (q, a) -> add "u1(%.12g) q[%d]" a q
  | Gate.Cnot (c, t) -> add "cx q[%d],q[%d]" c t
  | Gate.Barrier -> add "barrier q"
  | Gate.Measure q -> add "measure q[%d] -> c[%d]" q q
  | Gate.Cphase _ | Gate.Swap _ -> assert false (* decomposed below *)

let to_string c =
  let gates =
    List.concat_map
      (fun g ->
        match g with
        | Gate.Cphase _ | Gate.Swap _ -> Decompose.gate g
        | _ -> [ g ])
      (Circuit.gates c)
  in
  let has_measure =
    List.exists (function Gate.Measure _ -> true | _ -> false) gates
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" (Circuit.num_qubits c));
  if has_measure then
    Buffer.add_string buf (Printf.sprintf "creg c[%d];\n" (Circuit.num_qubits c));
  List.iter (statement buf) gates;
  Buffer.contents buf

let print c = print_string (to_string c)

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let fail_at line msg = failwith (Printf.sprintf "qasm: line %d: %s" line msg)

(* Angle expressions: signed products/quotients of numbers and [pi],
   e.g. "0.5", "-pi/4", "3*pi/2". *)
let parse_angle line s =
  let s = String.trim s in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let atom () =
    skip_ws ();
    let neg =
      match peek () with
      | Some '-' ->
        incr pos;
        true
      | Some '+' ->
        incr pos;
        false
      | _ -> false
    in
    skip_ws ();
    let start = !pos in
    if !pos + 2 <= n && String.sub s !pos 2 = "pi" then begin
      pos := !pos + 2;
      if neg then -.Float.pi else Float.pi
    end
    else begin
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '.' | 'e' | 'E' -> true
           | '-' | '+' ->
             (* exponent sign only *)
             !pos > start && (s.[!pos - 1] = 'e' || s.[!pos - 1] = 'E')
           | _ -> false)
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> if neg then -.f else f
      | None -> fail_at line ("bad angle: " ^ s)
    end
  in
  let rec products acc =
    skip_ws ();
    match peek () with
    | Some '*' ->
      incr pos;
      products (acc *. atom ())
    | Some '/' ->
      incr pos;
      products (acc /. atom ())
    | None -> acc
    | Some c -> fail_at line (Printf.sprintf "unexpected '%c' in angle" c)
  in
  products (atom ())

let parse_qubit line reg s =
  let s = String.trim s in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some l, Some r when r > l ->
    let name = String.trim (String.sub s 0 l) in
    if reg <> "" && name <> reg then
      fail_at line ("unknown register " ^ name);
    (match int_of_string_opt (String.sub s (l + 1) (r - l - 1)) with
    | Some i -> i
    | None -> fail_at line ("bad qubit index in " ^ s))
  | _ -> fail_at line ("expected reg[i], got " ^ s)

(* Split "name(arg) operands" into (name, Some arg, operands). *)
let split_statement line stmt =
  let stmt = String.trim stmt in
  match String.index_opt stmt '(' with
  | Some l -> (
    match String.index_opt stmt ')' with
    | Some r when r > l ->
      let name = String.trim (String.sub stmt 0 l) in
      let arg = String.sub stmt (l + 1) (r - l - 1) in
      let rest = String.sub stmt (r + 1) (String.length stmt - r - 1) in
      (name, Some arg, String.trim rest)
    | _ -> fail_at line "unbalanced parentheses")
  | None -> (
    match String.index_opt stmt ' ' with
    | Some sp ->
      ( String.sub stmt 0 sp,
        None,
        String.trim (String.sub stmt (sp + 1) (String.length stmt - sp - 1)) )
    | None -> (stmt, None, ""))

let strip_comment l =
  let rec find i =
    if i + 1 >= String.length l then None
    else if l.[i] = '/' && l.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub l 0 i | None -> l

let of_string text =
  let reg = ref "" in
  let size = ref (-1) in
  let gates = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno raw ->
      let line = lineno + 1 in
      let content = String.trim (strip_comment raw) in
      let statements =
        List.filter
          (fun s -> String.trim s <> "")
          (String.split_on_char ';' content)
      in
      List.iter
        (fun stmt ->
          let name, arg, operands = split_statement line stmt in
          let operand_list =
            List.map String.trim (String.split_on_char ',' operands)
          in
          let qubit1 () =
            match operand_list with
            | [ q ] -> parse_qubit line !reg q
            | _ -> fail_at line ("expected one operand for " ^ name)
          in
          let qubit2 () =
            match operand_list with
            | [ a; b ] ->
              let a = parse_qubit line !reg a and b = parse_qubit line !reg b in
              if a = b then
                fail_at line (Printf.sprintf "%s names qubit %d twice" name a);
              (a, b)
            | _ -> fail_at line ("expected two operands for " ^ name)
          in
          let angle () =
            match arg with
            | Some a -> parse_angle line a
            | None -> fail_at line (name ^ " needs an angle")
          in
          match String.uppercase_ascii name with
          | "OPENQASM" -> ()
          | _ -> (
            match name with
            | "include" | "creg" -> ()
            | "qreg" -> (
              match operand_list with
              | [ q ] -> (
                match (String.index_opt q '[', String.index_opt q ']') with
                | Some l, Some r when r > l ->
                  reg := String.trim (String.sub q 0 l);
                  size :=
                    (match
                       int_of_string_opt (String.sub q (l + 1) (r - l - 1))
                     with
                    | Some s when s >= 0 -> s
                    | _ -> fail_at line "bad register size")
                | _ -> fail_at line "bad qreg declaration")
              | _ -> fail_at line "bad qreg declaration")
            | "h" -> gates := Gate.H (qubit1 ()) :: !gates
            | "x" -> gates := Gate.X (qubit1 ()) :: !gates
            | "y" -> gates := Gate.Y (qubit1 ()) :: !gates
            | "z" -> gates := Gate.Z (qubit1 ()) :: !gates
            | "rx" -> gates := Gate.Rx (qubit1 (), angle ()) :: !gates
            | "ry" -> gates := Gate.Ry (qubit1 (), angle ()) :: !gates
            | "rz" -> gates := Gate.Rz (qubit1 (), angle ()) :: !gates
            | "u1" | "p" -> gates := Gate.Phase (qubit1 (), angle ()) :: !gates
            | "cx" ->
              let c, t = qubit2 () in
              gates := Gate.Cnot (c, t) :: !gates
            | "swap" ->
              let a, b = qubit2 () in
              gates := Gate.Swap (a, b) :: !gates
            | "barrier" -> gates := Gate.Barrier :: !gates
            | "measure" -> (
              (* "measure q[i] -> c[j]" *)
              match String.index_opt operands '-' with
              | Some arrow ->
                gates :=
                  Gate.Measure
                    (parse_qubit line !reg (String.sub operands 0 arrow))
                  :: !gates
              | None -> fail_at line "measure needs -> target")
            | other -> fail_at line ("unsupported statement: " ^ other)))
        statements)
    lines;
  if !size < 0 then failwith "qasm: missing qreg declaration";
  (* a qubit index outside the register is malformed input too *)
  try Circuit.of_gates !size (List.rev !gates)
  with Invalid_argument msg -> failwith ("qasm: " ^ msg)
