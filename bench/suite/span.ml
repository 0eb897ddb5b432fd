(* In-memory span recorder for the traced run.  Spans are opened by the
   suite around its own calls into the repository's layers, kept in
   growable arrays, and written out once the run ends; nothing here
   touches the library's own telemetry, so the untraced run pays
   nothing and the traced run pays two clock reads per span. *)

let now = Unix.gettimeofday

type t = {
  mutable len : int;
  mutable names : string array;
  mutable starts : float array;
  mutable durs : float array;
  mutable parents : int array;  (** index of the enclosing span, or -1 *)
  mutable stack : int list;
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    names = Array.make cap "";
    starts = Array.make cap 0.0;
    durs = Array.make cap 0.0;
    parents = Array.make cap (-1);
    stack = [];
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.0;
  t.durs <- extend t.durs 0.0;
  t.parents <- extend t.parents (-1)

(* Record a span with explicit times; the parent defaults to the
   innermost open span.  Explicit times serve the compile phases, whose
   durations come from [Compile.result.phase_times] rather than from a
   clock read here. *)
let add ?parent t name ~start ~dur =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.durs.(i) <- dur;
  t.parents.(i) <-
    (match (parent, t.stack) with
    | Some p, _ -> p
    | None, p :: _ -> p
    | None, [] -> -1);
  t.len <- i + 1;
  i

let enter t name =
  let i = add t name ~start:(now ()) ~dur:0.0 in
  t.stack <- i :: t.stack;
  i

let leave t i =
  t.durs.(i) <- now () -. t.starts.(i);
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

(* What the workload loops call: a traced run passes [traced t], an
   untraced run [untraced], so both run the very same code path. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

let traced t =
  {
    span =
      (fun name f ->
        let i = enter t name in
        match f () with
        | v ->
          leave t i;
          v
        | exception e ->
          leave t i;
          raise e);
  }

(* The most recently opened span and a span's start: the compile loop
   hangs the phase breakdown under the [bench.compile] span it just
   closed. *)
let last t = t.len - 1
let start t i = t.starts.(i)

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = {
  total_s : float;  (** sum of span durations *)
  self_s : float;  (** durations minus the part covered by child spans *)
  durations : float array;  (** sorted ascending *)
}

let summaries t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. t.durs.(i)
  done;
  let acc : (string, float list * float * float) Hashtbl.t = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let ds, total, self =
      Option.value (Hashtbl.find_opt acc t.names.(i)) ~default:([], 0.0, 0.0)
    in
    Hashtbl.replace acc t.names.(i)
      (t.durs.(i) :: ds, total +. t.durs.(i), self +. (t.durs.(i) -. child.(i)))
  done;
  Hashtbl.fold
    (fun name (ds, total_s, self_s) m ->
      let durations = Array.of_list ds in
      Array.sort compare durations;
      (name, { total_s; self_s; durations }) :: m)
    acc []

(* ------------------------------------------------------------------ *)
(* Chrome trace (chrome://tracing, Perfetto): one complete event per
   span.  Capped so a long replay does not produce a huge file; the
   summaries above always cover every span. *)

let max_chrome_events = 100_000

let write_chrome t path =
  let module J = Qaoa_obs.Json in
  Out_channel.with_open_bin path (fun oc ->
      let origin = if t.len > 0 then t.starts.(0) else 0.0 in
      let n = min t.len max_chrome_events in
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to n - 1 do
        if i > 0 then output_string oc ",\n";
        output_string oc
          (J.to_string
             (J.Assoc
                [
                  ("name", J.String t.names.(i));
                  ("cat", J.String "bench");
                  ("ph", J.String "X");
                  ("ts", J.Float (1e6 *. (t.starts.(i) -. origin)));
                  ("dur", J.Float (1e6 *. t.durs.(i)));
                  ("pid", J.Int 1);
                  ("tid", J.Int 1);
                ]))
      done;
      Printf.fprintf oc "\n],\"otherData\":{\"spans\":%d,\"written\":%d}}\n" t.len n)
