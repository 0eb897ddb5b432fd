(* Unit and property tests for the qaoa_graph substrate. *)

module Rng = Qaoa_util.Rng
module Graph = Qaoa_graph.Graph
module Generators = Qaoa_graph.Generators
module Paths = Qaoa_graph.Paths
module Float_matrix = Qaoa_util.Float_matrix

let test_build_and_query () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (1, 2) ] in
  Alcotest.(check int) "n" 4 (Graph.num_vertices g);
  Alcotest.(check int) "m (dedup)" 2 (Graph.num_edges g);
  Alcotest.(check bool) "edge 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "edge symmetric" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no edge 0-2" false (Graph.has_edge g 0 2);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "deg 3" 0 (Graph.degree g 3);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (Graph.neighbors g 1);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (Graph.edges g)

let test_add_remove () =
  let g = Graph.create 3 in
  let g = Graph.add_edge g 0 2 in
  Alcotest.(check bool) "added" true (Graph.has_edge g 0 2);
  let g2 = Graph.remove_edge g 0 2 in
  Alcotest.(check bool) "removed" false (Graph.has_edge g2 0 2);
  Alcotest.(check bool) "persistent" true (Graph.has_edge g 0 2);
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g 1 1));
  Alcotest.check_raises "out of range" (Invalid_argument "Graph: vertex out of range")
    (fun () -> ignore (Graph.add_edge g 0 5))

let test_common_neighbors () =
  let g = Graph.of_edges 5 [ (0, 2); (1, 2); (0, 3); (1, 3); (0, 4) ] in
  Alcotest.(check (list int)) "common 0 1" [ 2; 3 ] (Graph.common_neighbors g 0 1);
  Alcotest.(check (list int)) "common 2 3" [ 0; 1 ] (Graph.common_neighbors g 2 3);
  Alcotest.(check (list int)) "none" [] (Graph.common_neighbors g 1 4)

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (Graph.is_connected (Generators.path 5));
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two components" false (Graph.is_connected g);
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1 ]; [ 2; 3 ] ]
    (Paths.connected_components g);
  Alcotest.(check bool) "empty connected" true (Graph.is_connected (Graph.create 0));
  Alcotest.(check bool) "singleton connected" true (Graph.is_connected (Graph.create 1))

let test_generators_shapes () =
  let p = Generators.path 6 in
  Alcotest.(check int) "path edges" 5 (Graph.num_edges p);
  let c = Generators.cycle 6 in
  Alcotest.(check int) "cycle edges" 6 (Graph.num_edges c);
  List.iter
    (fun v -> Alcotest.(check int) "cycle 2-regular" 2 (Graph.degree c v))
    (Graph.vertices c);
  let g = Generators.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "grid vertices" 12 (Graph.num_vertices g);
  Alcotest.(check int) "grid edges" 17 (Graph.num_edges g);
  let k = Generators.complete 5 in
  Alcotest.(check int) "K5 edges" 10 (Graph.num_edges k);
  let s = Generators.star 5 in
  Alcotest.(check int) "star center degree" 4 (Graph.degree s 0)

let test_erdos_renyi_extremes () =
  let rng = Rng.create 1 in
  let empty = Generators.erdos_renyi rng ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.num_edges empty);
  let full = Generators.erdos_renyi rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges full)

let test_erdos_renyi_density () =
  let rng = Rng.create 2 in
  let total = ref 0 in
  let trials = 50 in
  for _ = 1 to trials do
    total := !total + Graph.num_edges (Generators.erdos_renyi rng ~n:20 ~p:0.3)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected = 0.3 *. 190.0 in
  Alcotest.(check bool) "density near p*C(n,2)" true
    (Float.abs (mean -. expected) < 6.0)

let test_gnm () =
  let rng = Rng.create 3 in
  let g = Generators.erdos_renyi_gnm rng ~n:10 ~m:17 in
  Alcotest.(check int) "exact edge count" 17 (Graph.num_edges g);
  Alcotest.check_raises "too many"
    (Invalid_argument "Generators.erdos_renyi_gnm: too many edges") (fun () ->
      ignore (Generators.erdos_renyi_gnm rng ~n:4 ~m:7))

let test_random_regular () =
  let rng = Rng.create 4 in
  List.iter
    (fun (n, d) ->
      let g = Generators.random_regular rng ~n ~d in
      List.iter
        (fun v -> Alcotest.(check int) "regular degree" d (Graph.degree g v))
        (Graph.vertices g))
    [ (8, 3); (12, 4); (20, 3); (20, 8); (15, 6) ];
  Alcotest.check_raises "odd nd"
    (Invalid_argument "Generators.random_regular: n * d must be even")
    (fun () -> ignore (Generators.random_regular rng ~n:5 ~d:3))

let test_random_regular_varies () =
  let rng = Rng.create 5 in
  let a = Generators.random_regular rng ~n:12 ~d:3 in
  let b = Generators.random_regular rng ~n:12 ~d:3 in
  Alcotest.(check bool) "two draws differ" false (Graph.equal a b)

let test_bfs_and_paths () =
  let g = Generators.path 6 in
  let d = Paths.bfs_distances g 0 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4; 5 |] d;
  let sp = Paths.shortest_path g 1 4 in
  Alcotest.(check (list int)) "path route" [ 1; 2; 3; 4 ] sp;
  let disconnected = Graph.of_edges 4 [ (0, 1) ] in
  Alcotest.check_raises "unreachable" Not_found (fun () ->
      ignore (Paths.shortest_path disconnected 0 3))

let test_shortest_path_endpoints () =
  let g = Generators.cycle 8 in
  let sp = Paths.shortest_path g 0 3 in
  Alcotest.(check int) "starts at src" 0 (List.hd sp);
  Alcotest.(check int) "ends at dst" 3 (List.nth sp (List.length sp - 1));
  Alcotest.(check int) "length = dist + 1" 4 (List.length sp);
  Alcotest.(check (list int)) "trivial path" [ 2 ] (Paths.shortest_path g 2 2)

let test_all_pairs_hops () =
  let g = Generators.cycle 6 in
  let d = Paths.all_pairs_hops g in
  Alcotest.(check (float 1e-9)) "opposite" 3.0 (Float_matrix.get d 0 3);
  Alcotest.(check (float 1e-9)) "adjacent" 1.0 (Float_matrix.get d 0 5);
  Alcotest.(check bool) "symmetric" true (Float_matrix.is_symmetric d)

let test_diameter () =
  Alcotest.(check int) "path diameter" 5 (Paths.diameter (Generators.path 6));
  Alcotest.(check int) "cycle diameter" 3 (Paths.diameter (Generators.cycle 6));
  Alcotest.(check int) "complete diameter" 1 (Paths.diameter (Generators.complete 4))

(* QCheck: BFS distances from vertex 0 agree with Floyd-Warshall hops. *)
let prop_bfs_matches_fw =
  QCheck.Test.make ~name:"bfs agrees with floyd-warshall" ~count:50
    QCheck.(pair (int_bound 10000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.4 in
      let fw = Paths.all_pairs_hops g in
      let ok = ref true in
      for src = 0 to n - 1 do
        let bfs = Paths.bfs_distances g src in
        for v = 0 to n - 1 do
          let a = if bfs.(v) = max_int then Float.infinity else float_of_int bfs.(v) in
          if a <> Float_matrix.get fw src v then ok := false
        done
      done;
      !ok)

(* QCheck: random regular graphs have the requested degree everywhere. *)
let prop_regular_degrees =
  QCheck.Test.make ~name:"random_regular degree invariant" ~count:40
    QCheck.(triple (int_bound 10000) (int_range 4 16) (int_range 2 3))
    (fun (seed, n, d) ->
      let n = if n * d mod 2 = 1 then n + 1 else n in
      let g = Generators.random_regular (Rng.create seed) ~n ~d in
      List.for_all (fun v -> Graph.degree g v = d) (Graph.vertices g))

(* QCheck: shortest_path length always equals the BFS distance. *)
let prop_shortest_path_length =
  QCheck.Test.make ~name:"shortest_path matches bfs distance" ~count:50
    QCheck.(pair (int_bound 10000) (int_range 3 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.5 in
      let dist = Paths.bfs_distances g 0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        if dist.(v) <> max_int then begin
          let p = Paths.shortest_path g 0 v in
          if List.length p <> dist.(v) + 1 then ok := false;
          (* consecutive vertices must be adjacent *)
          let rec adj = function
            | a :: (b :: _ as rest) ->
              if not (Graph.has_edge g a b) then ok := false;
              adj rest
            | _ -> ()
          in
          adj p
        end
      done;
      !ok)

let suite =
  [
    ("build and query", `Quick, test_build_and_query);
    ("add/remove edges", `Quick, test_add_remove);
    ("common neighbors", `Quick, test_common_neighbors);
    ("connectivity", `Quick, test_connectivity);
    ("generator shapes", `Quick, test_generators_shapes);
    ("erdos-renyi extremes", `Quick, test_erdos_renyi_extremes);
    ("erdos-renyi density", `Slow, test_erdos_renyi_density);
    ("gnm exact edges", `Quick, test_gnm);
    ("random regular", `Quick, test_random_regular);
    ("random regular varies", `Quick, test_random_regular_varies);
    ("bfs and shortest paths", `Quick, test_bfs_and_paths);
    ("shortest path endpoints", `Quick, test_shortest_path_endpoints);
    ("all pairs hops", `Quick, test_all_pairs_hops);
    ("diameter", `Quick, test_diameter);
    QCheck_alcotest.to_alcotest prop_bfs_matches_fw;
    QCheck_alcotest.to_alcotest prop_regular_degrees;
    QCheck_alcotest.to_alcotest prop_shortest_path_length;
  ]
