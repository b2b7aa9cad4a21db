(* Shard.map_nodes and the tiled construction paths.

   The qcheck suites elsewhere use small point sets, which [Shard] serves
   from one global grid; these tests use n ≥ 4096 so the per-tile
   ghost-zone machinery is actually exercised, and pin it against the
   global grid and brute-force oracles. *)

module Spatial_grid = Adhoc_geom.Spatial_grid
module Shard = Adhoc_geom.Shard
module Pool = Adhoc_util.Pool
module Graph = Adhoc_graph.Graph
open Adhoc_topo
open Helpers

(* Large enough that by_load = floor (sqrt (n / 1024)) ≥ 2: tiled. *)
let big_n = 4608
let range = 0.04

let big_points seed = Adhoc_pointset.Generators.uniform (Prng.create seed) big_n

(* ------------------------------------------------------------------ *)
(* map_nodes vs the global grid                                        *)

let test_map_nodes_matches_global =
  qtest "sharded range queries = global grid" ~count:5 seed_gen (fun seed ->
      let points = big_points seed in
      let query = range *. (1. +. 1e-9) in
      let answer grid u =
        List.sort Int.compare (indices_within grid points.(u) query)
      in
      let sharded = Shard.map_nodes ~range points ~f:answer in
      let global = Spatial_grid.build ~cell:range points in
      let ok = ref true in
      Array.iteri (fun u got -> if got <> answer global u then ok := false) sharded;
      !ok)

let test_map_nodes_jobs_invariant =
  qtest "map_nodes bit-identical across jobs" ~count:3 seed_gen (fun seed ->
      let points = big_points seed in
      let query = range *. (1. +. 1e-9) in
      let answer grid u =
        List.sort Int.compare (indices_within grid points.(u) query)
      in
      let sequential = Shard.map_nodes ~range points ~f:answer in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              Shard.map_nodes ~pool ~range points ~f:answer = sequential))
        [ 1; 2; env_jobs () ])

let test_map_nodes_degenerate () =
  Alcotest.(check int) "n=0" 0 (Array.length (Shard.map_nodes ~range [||] ~f:(fun _ u -> u)));
  let one = [| Point.make 0.5 0.5 |] in
  let r = Shard.map_nodes ~range one ~f:(fun grid u -> indices_within grid one.(u) range) in
  Alcotest.(check int) "n=1 total" 1 (Array.length r);
  Alcotest.(check (list int)) "n=1 self" [ 0 ] r.(0)

(* ------------------------------------------------------------------ *)
(* Empty / tiny grids                                                  *)

let test_empty_grid_total () =
  let g = Spatial_grid.build ~cell:1. [||] in
  Alcotest.(check int) "length" 0 (Spatial_grid.length g);
  Alcotest.(check (list int)) "query empty" [] (indices_within g Point.origin 10.);
  Alcotest.(check (option int)) "nearest none" None (Spatial_grid.nearest_other g 0)

let test_build_indexed_subset () =
  let pts = [| Point.make 0.1 0.1; Point.make 0.2 0.2; Point.make 0.9 0.9 |] in
  let g = Spatial_grid.build_indexed ~cell:0.5 pts [| 2; 0 |] in
  Alcotest.(check int) "length" 2 (Spatial_grid.length g);
  let near = List.sort Int.compare (indices_within g (Point.make 0.15 0.15) 0.2) in
  (* id 1 is not in the subset; answers carry the original ids. *)
  Alcotest.(check (list int)) "subset ids" [ 0 ] near;
  let far = List.sort Int.compare (indices_within g (Point.make 0.9 0.9) 0.05) in
  Alcotest.(check (list int)) "far id" [ 2 ] far

(* ------------------------------------------------------------------ *)
(* Tiled constructions vs oracles                                      *)

let brute_udg points range =
  let n = Array.length points in
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Point.dist points.(u) points.(v) in
      if d <= range then Graph.Builder.add_edge b u v d
    done
  done;
  Graph.Builder.build b

let test_udg_tiled_matches_brute () =
  let points = big_points 42 in
  let tiled = Udg.build ~range points in
  let brute = brute_udg points range in
  Alcotest.(check int) "num_edges" (Graph.num_edges brute) (Graph.num_edges tiled);
  if graph_digest tiled <> graph_digest brute then Alcotest.fail "tiled UDG differs from brute oracle"

let test_constructions_jobs_invariant_tiled () =
  let points = big_points 7 in
  let theta = Float.pi /. 3. in
  let builds pool =
    [
      graph_digest (Udg.build ?pool ~range points);
      graph_digest (Yao.graph ?pool ~theta ~range points);
      graph_digest (Theta_alg.overlay (Theta_alg.build ?pool ~theta ~range points));
    ]
  in
  let sequential = builds None in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          if builds (Some pool) <> sequential then
            Alcotest.failf "tiled construction differs at jobs=%d" jobs))
    [ 2; env_jobs () ]

let () =
  Alcotest.run "shard"
    [
      ( "map_nodes",
        [
          test_map_nodes_matches_global;
          test_map_nodes_jobs_invariant;
          case "degenerate" test_map_nodes_degenerate;
        ] );
      ( "grid",
        [ case "empty total" test_empty_grid_total; case "build_indexed" test_build_indexed_subset ]
      );
      ( "constructions",
        [
          case "udg = brute at tiled scale" test_udg_tiled_matches_brute;
          case "jobs-invariant at tiled scale" test_constructions_jobs_invariant_tiled;
        ] );
    ]
