(** Fast Euclidean MST: Kruskal over Delaunay edges.

    The Euclidean minimum spanning tree is always a subgraph of the
    Delaunay triangulation, so restricting Kruskal to the O(n) Delaunay
    edges gives the exact MST without materialising the O(n²) complete
    graph — what lets the large-n experiments (and
    {!Udg.critical_range}) scale.  The candidates also join each point to
    its successor in {!Adhoc_geom.Point.compare} order: that chain links
    repeated points, which the triangulation drops, at length 0, and it
    is the MST of a collinear set, which has no triangle.  So every input
    takes the same path, with O(n) candidates and no all-pairs step.

    The candidates — each triangle edge once, at its first occurrence
    (two counting passes drop the second copy of every interior edge),
    then the chain — go into flat endpoint and length arrays for
    {!Adhoc_graph.Mst.kruskal}: no candidate list, no boxed
    (u, v, length) tuple and no boxed length.  The chain's order comes
    from {!Adhoc_graph.Mst.ascending} over the flat coordinate arrays,
    by y and then by x, with no comparison closure. *)

val build : Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t
(** A minimum spanning tree (forest, for fewer than two distinct points)
    of the points. *)

val longest_edge : Adhoc_geom.Point.t array -> float
(** Length of the MST's longest edge — the connectivity threshold of the
    disk graph ([0.] for fewer than two points). *)
