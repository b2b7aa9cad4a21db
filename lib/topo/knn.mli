(** k-nearest-neighbour graph — the strawman from the paper's introduction:
    "just connecting each node to its closest k neighbors may provide
    energy-efficient routes but does not guarantee connectivity or a
    constant degree per node".

    Experiment E12 quantifies both failures: the disconnection probability
    for practical [k] and the in-degree blow-up, next to ΘALG which fixes
    them at the same edge budget. *)

val build :
  ?pool:Adhoc_util.Pool.t -> ?range:float -> k:int -> Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t
(** Undirected graph with an edge [(u,v)] whenever [v] is among the [k]
    nearest neighbours of [u] (or vice versa) and within [range]
    (default unbounded).  Ties broken by node index.  Grid-accelerated
    expanding-radius search; [?pool] parallelizes per node.  Output is
    bit-identical to a full scan and sort per node. *)

val min_connecting_k :
  ?pool:Adhoc_util.Pool.t -> ?range:float -> ?k_max:int -> Adhoc_geom.Point.t array -> int option
(** The smallest [k] for which the kNN graph is connected, searched up to
    [k_max] (default [n-1]); [None] when even that fails (range-limited). *)
