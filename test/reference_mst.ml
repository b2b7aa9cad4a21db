(* The Euclidean MST from the complete graph, which Mst.of_points built
   before Euclidean_mst.build, Kruskal over O(n) Delaunay candidates,
   replaced it everywhere: the oracle the fast tree must equal, edge ids
   included.  All n(n-1)/2 candidates in ascending (u, v) order, O(n²)
   words: small n only. *)

let of_points points =
  let n = Array.length points in
  let k = n * (n - 1) / 2 in
  let us = Array.make k 0 and vs = Array.make k 0 and lens = Array.make k 0. in
  let i = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      us.(!i) <- u;
      vs.(!i) <- v;
      lens.(!i) <- Adhoc_geom.Point.dist points.(u) points.(v);
      incr i
    done
  done;
  Adhoc_graph.Mst.kruskal n us vs lens
