module Int_set = Set.Make (Int)

type t = { n : int; adj : Int_set.t array }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make n Int_set.empty }

let check_vertex t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: vertex out of range"

let num_vertices t = t.n

let num_edges t =
  Array.fold_left (fun acc s -> acc + Int_set.cardinal s) 0 t.adj / 2

let add_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let adj = Array.copy t.adj in
  adj.(u) <- Int_set.add v adj.(u);
  adj.(v) <- Int_set.add u adj.(v);
  { t with adj }

let remove_edge t u v =
  check_vertex t u;
  check_vertex t v;
  let adj = Array.copy t.adj in
  adj.(u) <- Int_set.remove v adj.(u);
  adj.(v) <- Int_set.remove u adj.(v);
  { t with adj }

let of_edges n edges =
  (* Build imperatively to avoid quadratic copying, then freeze. *)
  let g = create n in
  let adj = Array.make n Int_set.empty in
  List.iter
    (fun (u, v) ->
      check_vertex g u;
      check_vertex g v;
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      adj.(u) <- Int_set.add v adj.(u);
      adj.(v) <- Int_set.add u adj.(v))
    edges;
  { n; adj }

let has_edge t u v =
  check_vertex t u;
  check_vertex t v;
  Int_set.mem v t.adj.(u)

let degree t v =
  check_vertex t v;
  Int_set.cardinal t.adj.(v)

let neighbors t v =
  check_vertex t v;
  Int_set.elements t.adj.(v)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    Int_set.iter (fun v -> if u < v then acc := (u, v) :: !acc) t.adj.(u)
  done;
  List.sort compare !acc

let vertices t = List.init t.n (fun i -> i)
let fold_edges f t init = List.fold_left (fun acc (u, v) -> f u v acc) init (edges t)
let max_degree t = Array.fold_left (fun acc s -> max acc (Int_set.cardinal s)) 0 t.adj

let common_neighbors t u v =
  check_vertex t u;
  check_vertex t v;
  Int_set.elements (Int_set.inter t.adj.(u) t.adj.(v))

let is_connected t =
  if t.n <= 1 then true
  else begin
    let seen = Array.make t.n false in
    let rec dfs v =
      seen.(v) <- true;
      Int_set.iter (fun u -> if not seen.(u) then dfs u) t.adj.(v)
    in
    dfs 0;
    Array.for_all (fun b -> b) seen
  end

let equal a b =
  a.n = b.n && Array.for_all2 Int_set.equal a.adj b.adj

let pp ppf t =
  Format.fprintf ppf "graph(n=%d, m=%d:" t.n (num_edges t);
  List.iter (fun (u, v) -> Format.fprintf ppf " %d-%d" u v) (edges t);
  Format.fprintf ppf ")"
