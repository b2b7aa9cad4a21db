open Adhoc_geom
module Graph = Adhoc_graph.Graph

let build points =
  let n = Array.length points in
  (* Each point's successor in lexicographic order: the chain joins every
     repeated point, which the triangulation drops, to its twin at length
     0, and it is the MST of a collinear set, which has no triangle. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Point.compare points.(i) points.(j)) order;
  let chain = List.init (Int.max 0 (n - 1)) (fun k -> (order.(k), order.(k + 1))) in
  let delaunay =
    List.concat_map (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ]) (Delaunay.triangles points)
  in
  Adhoc_graph.Mst.of_candidate_edges points (delaunay @ chain)

let longest_edge points =
  Graph.fold_edges (build points) ~init:0. ~f:(fun acc _ e -> Float.max acc e.Graph.len)
