(** Minimal self-contained JSON tree: enough to serialize telemetry
    (Chrome trace events, JSONL, bench results) and to parse exports back
    in tests — no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. Non-finite floats serialize as
    [null] to stay within strict JSON. *)

val of_string : string -> t
(** Strict-ish recursive-descent parser for the output of {!to_string}
    (objects, arrays, strings with escapes, numbers, booleans, null).
    @raise Failure on malformed input. *)

val of_string_opt : string -> t option

val member : string -> t -> t option
(** [member key (Assoc ...)] is the value bound to [key], if any; [None]
    on non-objects. *)

val to_float : t -> float option
(** Numeric payload of [Int]/[Float] nodes. *)
