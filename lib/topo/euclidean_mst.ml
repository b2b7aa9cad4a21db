open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Counting_sort = Adhoc_util.Counting_sort

(* Point indices in [Point.compare] order, equal points by index, as
   [Array.stable_sort] with [Point.compare] gives them: stable by y, then
   stable by x, with no comparison closure. *)
let lexicographic (xs : float array) ys =
  let by_y = Adhoc_graph.Mst.ascending ys in
  let xs_by_y = Array.make (Array.length xs) 0. in
  for r = 0 to Array.length xs - 1 do
    xs_by_y.(r) <- xs.(by_y.(r))
  done;
  Array.map (fun r -> by_y.(r)) (Adhoc_graph.Mst.ascending xs_by_y)

let build points =
  let n = Array.length points in
  let xs = Array.make n 0. and ys = Array.make n 0. in
  for i = 0 to n - 1 do
    xs.(i) <- points.(i).Point.x;
    ys.(i) <- points.(i).Point.y
  done;
  (* Each point's successor in lexicographic order: the chain joins every
     repeated point, which the triangulation drops, to its twin at length
     0, and it is the MST of a collinear set, which has no triangle. *)
  let order = lexicographic xs ys in
  let triangles = Delaunay.triangles points in
  (* Three candidates per triangle, each (u, v) with u < v; an interior
     edge arrives once from each of its two triangles. *)
  let edges = 3 * List.length triangles in
  let tu = Array.make edges 0 and tv = Array.make edges 0 in
  List.iteri
    (fun t (a, b, c) ->
      tu.(3 * t) <- a;
      tv.(3 * t) <- b;
      tu.((3 * t) + 1) <- b;
      tv.((3 * t) + 1) <- c;
      tu.((3 * t) + 2) <- a;
      tv.((3 * t) + 2) <- c)
    triangles;
  (* Keep each pair's first occurrence: two stable counting passes, by v
     and then by u, order the candidates by ((u, v), index), so each run
     of one pair starts with its first.  A later twin has the same length
     and sorts after it in Kruskal's (length, index) order, where it
     could only be rejected, so dropping it leaves the same tree. *)
  let by_v = Array.make edges 0 and sorted = Array.init edges Fun.id in
  let count = Array.make (n + 1) 0 in
  Counting_sort.pass ~count ~key:tv sorted by_v edges;
  Counting_sort.pass ~count ~key:tu by_v sorted edges;
  let first = Array.make edges false and kept = ref 0 in
  for s = 0 to edges - 1 do
    let i = sorted.(s) in
    if s = 0 || (let p = sorted.(s - 1) in tu.(p) <> tu.(i) || tv.(p) <> tv.(i)) then begin
      first.(i) <- true;
      incr kept
    end
  done;
  let chain = Int.max 0 (n - 1) in
  let k = !kept + chain in
  let us = Array.make k 0 and vs = Array.make k 0 in
  let j = ref 0 in
  for i = 0 to edges - 1 do
    if first.(i) then begin
      us.(!j) <- tu.(i);
      vs.(!j) <- tv.(i);
      incr j
    end
  done;
  for c = 0 to chain - 1 do
    us.(!kept + c) <- order.(c);
    vs.(!kept + c) <- order.(c + 1)
  done;
  (* [Point.dist], operation for operation, on unboxed floats. *)
  let lens = Array.make k 0. in
  for i = 0 to k - 1 do
    let dx = xs.(us.(i)) -. xs.(vs.(i)) and dy = ys.(us.(i)) -. ys.(vs.(i)) in
    lens.(i) <- sqrt ((dx *. dx) +. (dy *. dy))
  done;
  Adhoc_graph.Mst.kruskal n us vs lens

let longest_edge points =
  Graph.fold_edges (build points) ~init:0. ~f:(fun acc _ e -> Float.max acc e.Graph.len)
