module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Dijkstra = Adhoc_graph.Dijkstra
module Bfs = Adhoc_graph.Bfs
module Components = Adhoc_graph.Components
module Mst = Adhoc_graph.Mst
module Floyd_warshall = Reference_stretch.Floyd_warshall
module Stretch = Adhoc_graph.Stretch
open Helpers

(* Random sparse graph from a seed: n nodes, each node linked to a few
   random others, plus a spanning chain with probability 1/2. *)
let random_graph seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 25 in
  let b = Graph.Builder.create n in
  if Prng.bool rng then
    for i = 0 to n - 2 do
      Graph.Builder.add_edge b i (i + 1) (Prng.range rng 0.1 2.)
    done;
  let extra = Prng.int rng (3 * n) in
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    Graph.Builder.add_edge b u v (Prng.range rng 0.1 2.)
  done;
  Graph.Builder.build b

(* ------------------------------------------------------------------ *)
(* Builder / accessors                                                 *)

let test_builder_dedup () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.;
  Graph.Builder.add_edge b 1 0 2.;
  Graph.Builder.add_edge b 1 1 1.;
  Alcotest.(check bool) "mem" true (Graph.Builder.mem b 0 1);
  let g = Graph.Builder.build b in
  Alcotest.(check int) "one edge" 1 (Graph.num_edges g);
  check_close "first length wins" 1. (Graph.length g 0)

let test_builder_bounds () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.Builder.add_edge: node out of range") (fun () ->
      Graph.Builder.add_edge b 0 5 1.)

let test_graph_accessors () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.); (0, 3, 4.) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.num_edges g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  let u, v = Graph.endpoints g 1 in
  Alcotest.(check (pair int int)) "endpoints" (1, 2) (u, v);
  Alcotest.(check int) "other endpoint" 2 (Graph.other_endpoint g 1 1);
  Alcotest.check_raises "other endpoint invalid"
    (Invalid_argument "Graph.other_endpoint: node not on edge") (fun () ->
      ignore (Graph.other_endpoint g 1 0));
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 3);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge g 0 2);
  Alcotest.(check (option int)) "find edge" (Some 3) (Graph.find_edge g 3 0);
  check_close "total length" 10. (Graph.total_length g);
  check_close "total energy" 30. (Graph.total_energy g)

let test_geometric () =
  let pts = [| Point.make 0. 0.; Point.make 3. 4. |] in
  let g = Graph.geometric pts [ (0, 1) ] in
  check_close "euclidean length" 5. (Graph.length g 0)

let test_degree_sum =
  qtest "sum of degrees = 2m" seed_gen (fun seed ->
      let g = random_graph seed in
      let sum = ref 0 in
      for v = 0 to Graph.n g - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * Graph.num_edges g)

let test_neighbors_consistent =
  qtest "neighbors match edges" seed_gen (fun seed ->
      let g = random_graph seed in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        Graph.iter_neighbors g v (fun w id ->
            let a, b = Graph.endpoints g id in
            if not ((a = v && b = w) || (a = w && b = v)) then ok := false)
      done;
      !ok)

let test_union_subgraph =
  qtest "graphs are subgraphs of their union" QCheck2.Gen.(pair seed_gen seed_gen)
    (fun (s1, s2) ->
      let rng = Prng.create s1 in
      let n = 2 + Prng.int rng 15 in
      let mk seed =
        let rng = Prng.create seed in
        let b = Graph.Builder.create n in
        for _ = 1 to n do
          Graph.Builder.add_edge b (Prng.int rng n) (Prng.int rng n) 1.
        done;
        Graph.Builder.build b
      in
      let a = mk s1 and c = mk s2 in
      let u = Graph.union a c in
      is_subgraph a u && is_subgraph c u)

(* ------------------------------------------------------------------ *)
(* CSR storage vs naive reference                                      *)

(* Naive reference semantics for the builder: canonicalise u < v, drop
   self-loops, first insertion of a pair wins and fixes both the length
   and the edge id order. *)
let naive_edges edges =
  List.fold_left
    (fun acc (u, v, len) ->
      if u = v then acc
      else begin
        let u, v = if u < v then (u, v) else (v, u) in
        if List.exists (fun (a, b, _) -> a = u && b = v) acc then acc
        else (u, v, len) :: acc
      end)
    [] edges
  |> List.rev

let random_edge_list seed =
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 12 in
  let k = Prng.int rng (4 * n) in
  let edges =
    List.init k (fun _ -> (Prng.int rng n, Prng.int rng n, Prng.range rng 0.1 2.))
  in
  (n, edges)

let test_csr_matches_naive =
  qtest "CSR graph = naive reference" ~count:300 seed_gen (fun seed ->
      let n, edges = random_edge_list seed in
      let g = Graph.of_edges ~n edges in
      let reference = naive_edges edges in
      let m = List.length reference in
      Graph.num_edges g = m
      && List.for_all2
           (fun (u, v, len) id ->
             Graph.endpoints g id = (u, v)
             && Graph.edge_u g id = u
             && Graph.edge_v g id = v
             && Graph.length g id = len
             && (Graph.edge g id).Graph.u = u)
           reference
           (List.init m Fun.id)
      &&
      let ok = ref true in
      for u = 0 to n - 1 do
        let deg = List.length (List.filter (fun (a, b, _) -> a = u || b = u) reference) in
        if Graph.degree g u <> deg then ok := false;
        for v = 0 to n - 1 do
          let expect =
            List.find_opt (fun (a, b, _) -> (a = u && b = v) || (a = v && b = u)) reference
          in
          (match (Graph.find_edge g u v, expect) with
          | None, None -> ()
          | Some id, Some (a, b, _) -> if Graph.endpoints g id <> (a, b) then ok := false
          | _ -> ok := false);
          if Graph.mem_edge g u v <> Option.is_some expect then ok := false
        done
      done;
      !ok)

let test_csr_fold_matches_naive =
  qtest "fold_edges visits edges in id order" ~count:200 seed_gen (fun seed ->
      let n, edges = random_edge_list seed in
      let g = Graph.of_edges ~n edges in
      let folded =
        Graph.fold_edges g ~init:[] ~f:(fun acc id e -> (id, e.Graph.u, e.Graph.v, e.Graph.len) :: acc)
        |> List.rev
      in
      folded = List.mapi (fun id (u, v, len) -> (id, u, v, len)) (naive_edges edges))

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)

let test_cost_models () =
  check_close "hops" 1. (Cost.hops 7.);
  check_close "length" 7. (Cost.length 7.);
  check_close "energy k2" 49. (Cost.energy ~kappa:2. 7.);
  check_close "energy k4" 16. (Cost.energy ~kappa:4. 2.)

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                            *)

let test_dijkstra_matches_floyd =
  qtest "dijkstra = floyd-warshall" ~count:150 seed_gen (fun seed ->
      let g = random_graph seed in
      let cost = if seed mod 2 = 0 then Cost.length else Cost.energy ~kappa:2. in
      let fw = Floyd_warshall.run g ~cost in
      let ok = ref true in
      for src = 0 to Graph.n g - 1 do
        let r = Dijkstra.run g ~cost ~src in
        for v = 0 to Graph.n g - 1 do
          if not (close ~eps:1e-9 fw.(src).(v) r.Dijkstra.dist.(v)) then ok := false
        done
      done;
      !ok)

let test_dijkstra_path_cost_consistent =
  qtest "path edges sum to dist" ~count:150 seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create (seed + 1) in
      let src = Prng.int rng (Graph.n g) and dst = Prng.int rng (Graph.n g) in
      let r = Dijkstra.run g ~cost:Cost.length ~src in
      match Dijkstra.path_edges r dst with
      | None -> r.Dijkstra.dist.(dst) = infinity
      | Some edges ->
          let total = List.fold_left (fun acc e -> acc +. Graph.length g e) 0. edges in
          close ~eps:1e-9 total r.Dijkstra.dist.(dst))

let test_dijkstra_path_nodes =
  qtest "path node sequence valid" ~count:100 seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create (seed + 2) in
      let src = Prng.int rng (Graph.n g) and dst = Prng.int rng (Graph.n g) in
      let r = Dijkstra.run g ~cost:Cost.length ~src in
      match Dijkstra.path r dst with
      | None -> true
      | Some [] -> false
      | Some (first :: _ as nodes) ->
          let rec consecutive = function
            | a :: (b :: _ as rest) -> Graph.mem_edge g a b && consecutive rest
            | _ -> true
          in
          first = src
          && List.nth nodes (List.length nodes - 1) = dst
          && consecutive nodes)

let test_dijkstra_line () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 4.) ] in
  let r = Dijkstra.run g ~cost:Cost.length ~src:0 in
  check_close "dist 3" 7. r.Dijkstra.dist.(3);
  check_close "distance fn" 7. (Dijkstra.distance g ~cost:Cost.length 0 3)

let test_dijkstra_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (2, 3, 1.) ] in
  let r = Dijkstra.run g ~cost:Cost.length ~src:0 in
  Alcotest.(check bool) "unreachable" true (r.Dijkstra.dist.(2) = infinity);
  Alcotest.(check bool) "no path" true (Dijkstra.path r 2 = None)

(* ------------------------------------------------------------------ *)
(* Bfs / Components                                                    *)

let test_bfs_hops () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 5.); (1, 2, 5.); (2, 3, 5.); (0, 4, 1.) ] in
  let h = Bfs.hops g ~src:0 in
  Alcotest.(check (array int)) "hops" [| 0; 1; 2; 3; 1 |] h;
  Alcotest.(check int) "diameter" 4 (Bfs.diameter_hops g)

let test_bfs_disconnected () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "unreachable marked" true ((Bfs.hops g ~src:0).(2) = max_int);
  Alcotest.(check bool) "reachable" true (Bfs.reachable g ~src:0).(1);
  Alcotest.(check int) "diameter infinite" max_int (Bfs.diameter_hops g)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1, 1.); (1, 2, 1.); (3, 4, 1.) ] in
  Alcotest.(check int) "count" 3 (Components.count g);
  Alcotest.(check bool) "not connected" false (Components.is_connected g);
  let labels = Components.labels g in
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 3; 3; 5 |] labels;
  let h = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  Alcotest.(check bool) "connected" true (Components.is_connected h);
  Alcotest.(check bool) "empty connected" true (Components.is_connected (Graph.of_edges ~n:0 []))

(* ------------------------------------------------------------------ *)
(* Mst                                                                 *)

let test_mst_known () =
  (* Square with a diagonal: MST must avoid the heavy diagonal. *)
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 0, 1.); (0, 2, 5.) ]
  in
  let t = Mst.of_graph g in
  Alcotest.(check int) "n-1 edges" 3 (Graph.num_edges t);
  check_close "weight" 3. (Graph.total_length t);
  Alcotest.(check bool) "spanning" true (Components.is_connected t)

let test_mst_of_points () =
  let pts = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0.; Point.make 10. 0. |] in
  let t = Reference_mst.of_points pts in
  Alcotest.(check int) "edges" 3 (Graph.num_edges t);
  check_close "weight" 10. (Graph.total_length t)

(* Equal lengths are taken in candidate order, and edge ids follow the
   order taken: a triangle of unit sides keeps its first two
   candidates, and a shorter candidate listed last comes first. *)
let test_mst_kruskal_order () =
  let edges g = List.init (Graph.num_edges g) (Graph.endpoints g) in
  let tree = Mst.kruskal 3 [| 1; 0; 0 |] [| 2; 2; 1 |] [| 1.; 1.; 1. |] in
  Alcotest.(check (list (pair int int))) "ties" [ (1, 2); (0, 2) ] (edges tree);
  let tree = Mst.kruskal 4 [| 0; 1; 2; 0 |] [| 1; 2; 3; 3 |] [| 2.; 2.; 2.; 1. |] in
  Alcotest.(check (list (pair int int))) "shorter first" [ (0, 3); (0, 1); (1, 2) ] (edges tree);
  Alcotest.check_raises "lengths" (Invalid_argument "Mst.kruskal: candidate arrays differ in length")
    (fun () -> ignore (Mst.kruskal 2 [| 0 |] [| 1 |] [||]))

let test_mst_beats_random_spanning_tree =
  qtest "MST minimal vs random spanning tree" ~count:100 seed_gen (fun seed ->
      let g = random_graph seed in
      QCheck2.assume (Components.is_connected g && Graph.n g > 2);
      let mst = Mst.of_graph g in
      (* Random spanning tree: shuffle edges, add acyclically. *)
      let rng = Prng.create (seed * 7) in
      let edges = Array.init (Graph.num_edges g) Fun.id in
      Prng.shuffle rng edges;
      let uf = Adhoc_util.Union_find.create (Graph.n g) in
      let total = ref 0. in
      Array.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          if Adhoc_util.Union_find.union uf u v then total := !total +. Graph.length g e)
        edges;
      Graph.total_length mst <= !total +. 1e-9)

let test_mst_forest =
  qtest "MST is spanning forest" seed_gen (fun seed ->
      let g = random_graph seed in
      let t = Mst.of_graph g in
      Graph.num_edges t = Graph.n g - Components.count g
      && Components.count t = Components.count g)

(* ------------------------------------------------------------------ *)
(* Stretch                                                             *)

let geometric_pair seed =
  (* A geometric base graph and a sparse connected subgraph of it. *)
  let rng = Prng.create seed in
  let points = points_of_seed ~min_n:5 ~max_n:16 seed in
  let n = Array.length points in
  let base = Reference_mst.of_points points in
  (* Base: MST plus extra random geometric edges. *)
  let b = Graph.Builder.create n in
  ignore
    (Graph.fold_edges base ~init:() ~f:(fun () _ e ->
         Graph.Builder.add_edge b e.Graph.u e.Graph.v e.Graph.len));
  for _ = 1 to 2 * n do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v))
  done;
  let base = Graph.Builder.build b in
  (* Subgraph: MST plus a few of the extra edges. *)
  let s = Graph.Builder.create n in
  ignore
    (Graph.fold_edges base ~init:() ~f:(fun () id e ->
         if id < n - 1 || Prng.bool rng then
           Graph.Builder.add_edge s e.Graph.u e.Graph.v e.Graph.len));
  (points, Graph.Builder.build s, base)

let test_stretch_edge_reduction_exact =
  qtest "over_base_edges = exact all-pairs stretch" ~count:100 seed_gen (fun seed ->
      let _, sub, base = geometric_pair seed in
      List.for_all
        (fun cost ->
          close ~eps:1e-9
            (Reference_stretch.exact_small ~sub ~base ~cost)
            (Stretch.over_base_edges ~sub ~base ~cost ()))
        [ Cost.length; Cost.energy ~kappa:2.; Cost.energy ~kappa:3. ])

let test_stretch_identity () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 1.5) ] in
  check_close "self stretch" 1. (Stretch.over_base_edges ~sub:g ~base:g ~cost:Cost.length ())

let test_stretch_disconnected_sub () =
  let base = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let sub = Graph.of_edges ~n:3 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "infinite" true
    (Stretch.over_base_edges ~sub ~base ~cost:Cost.length () = infinity)

let test_stretch_vs_euclidean =
  qtest "euclidean stretch >= 1 and >= base stretch" ~count:50 seed_gen (fun seed ->
      let points, sub, base = geometric_pair seed in
      let vs_e = Stretch.vs_euclidean ~sub ~points () in
      let vs_b = Stretch.over_base_edges ~sub ~base ~cost:Cost.length () in
      vs_e >= 1. && vs_e >= vs_b -. 1e-9)

let test_stretch_profile () =
  let base = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 1.4) ] in
  let sub = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let profile = Stretch.per_edge_profile ~sub ~base ~cost:Cost.length () in
  Alcotest.(check int) "profile size" 3 (Array.length profile);
  check_close "direct edges" 1. profile.(0);
  check_close "detour" (2. /. 1.4) profile.(2)


let test_run_to_matches_run =
  qtest "run_to agrees with run at the target" ~count:80 seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create (seed + 9) in
      let src = Prng.int rng (Graph.n g) and dst = Prng.int rng (Graph.n g) in
      let full = (Dijkstra.run g ~cost:Cost.length ~src).Dijkstra.dist.(dst) in
      let early = (Dijkstra.run_to g ~cost:Cost.length ~src ~dst).Dijkstra.dist.(dst) in
      close ~eps:1e-12 full early)

let test_union_commutative =
  qtest "union edge sets commute" ~count:60 QCheck2.Gen.(pair seed_gen seed_gen)
    (fun (s1, s2) ->
      let rng = Prng.create s1 in
      let n = 2 + Prng.int rng 12 in
      let mk seed =
        let rng = Prng.create seed in
        let b = Graph.Builder.create n in
        for _ = 1 to n do
          Graph.Builder.add_edge b (Prng.int rng n) (Prng.int rng n) 1.
        done;
        Graph.Builder.build b
      in
      let a = mk s1 and c = mk s2 in
      edge_set (Graph.union a c) = edge_set (Graph.union c a))

let () =
  Alcotest.run "graph"
    [
      ( "builder",
        [
          case "dedup" test_builder_dedup;
          case "bounds" test_builder_bounds;
          case "accessors" test_graph_accessors;
          case "geometric" test_geometric;
          test_degree_sum;
          test_neighbors_consistent;
          test_union_subgraph;
          test_union_commutative;
        ] );
      ("csr", [ test_csr_matches_naive; test_csr_fold_matches_naive ]);
      ("cost", [ case "models" test_cost_models ]);
      ( "dijkstra",
        [
          test_dijkstra_matches_floyd;
          test_dijkstra_path_cost_consistent;
          test_dijkstra_path_nodes;
          case "line" test_dijkstra_line;
          case "unreachable" test_dijkstra_unreachable;
          test_run_to_matches_run;
        ] );
      ( "bfs/components",
        [
          case "hops" test_bfs_hops;
          case "disconnected" test_bfs_disconnected;
          case "components" test_components;
        ] );
      ( "mst",
        [
          case "known" test_mst_known;
          case "of points" test_mst_of_points;
          case "kruskal order" test_mst_kruskal_order;
          test_mst_beats_random_spanning_tree;
          test_mst_forest;
        ] );
      ( "stretch",
        [
          test_stretch_edge_reduction_exact;
          case "identity" test_stretch_identity;
          case "disconnected" test_stretch_disconnected_sub;
          test_stretch_vs_euclidean;
          case "profile" test_stretch_profile;
        ] );
    ]
