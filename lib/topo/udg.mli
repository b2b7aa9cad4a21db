(** The transmission graph G* (paper Section 2): nodes can communicate
    directly iff their distance is at most the maximum transmission range
    [d].  Also known as the unit-disk graph when [d = 1]. *)

val build : ?pool:Adhoc_util.Pool.t -> range:float -> Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t
(** Grid-accelerated construction, output-sensitive, for a positive
    finite [range]; at [range = 0.] (coincident nodes only) or [infinity]
    it scans every pair.  [?pool] parallelizes the per-node neighbour
    gather; edge ids stay identical. *)

val critical_range : Adhoc_geom.Point.t array -> float
(** The connectivity threshold: the smallest range at which G* is connected
    (the longest edge of the Euclidean MST).  [0.] for fewer than two
    points. *)
