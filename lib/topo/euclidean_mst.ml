open Adhoc_geom
module Graph = Adhoc_graph.Graph

let build points =
  let n = Array.length points in
  (* Each point's successor in lexicographic order: the chain joins every
     repeated point, which the triangulation drops, to its twin at length
     0, and it is the MST of a collinear set, which has no triangle. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Point.compare points.(i) points.(j)) order;
  let triangles = Delaunay.triangles points in
  let chain = Int.max 0 (n - 1) and edges = 3 * List.length triangles in
  let k = edges + chain in
  let us = Array.make k 0 and vs = Array.make k 0 in
  List.iteri
    (fun t (a, b, c) ->
      us.(3 * t) <- a;
      vs.(3 * t) <- b;
      us.((3 * t) + 1) <- b;
      vs.((3 * t) + 1) <- c;
      us.((3 * t) + 2) <- a;
      vs.((3 * t) + 2) <- c)
    triangles;
  for j = 0 to chain - 1 do
    us.(edges + j) <- order.(j);
    vs.(edges + j) <- order.(j + 1)
  done;
  let lens = Array.make k 0. in
  for i = 0 to k - 1 do
    lens.(i) <- Point.dist points.(us.(i)) points.(vs.(i))
  done;
  Adhoc_graph.Mst.kruskal n us vs lens

let longest_edge points =
  Graph.fold_edges (build points) ~init:0. ~f:(fun acc _ e -> Float.max acc e.Graph.len)
