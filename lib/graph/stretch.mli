(** Stretch of a subgraph: how much longer (in a given cost model) paths get
    when restricted to the subgraph.  This quantifies the paper's central
    topology-control results: Theorem 2.2 (energy-stretch of 𝒩 is O(1)) and
    Theorem 2.7 (distance-stretch is O(1) on civilized graphs).

    All functions require the subgraph and the base graph to share the node
    set [0 .. n-1]. *)

val over_base_edges :
  ?pool:Adhoc_util.Pool.t -> sub:Graph.t -> base:Graph.t -> cost:Cost.t -> unit -> float
(** [over_base_edges ~sub ~base ~cost] is
    [max] over edges [(u,v)] of [base] of
    [dist_sub(u, v) / cost(len(u, v))].

    For any cost model this equals the exact all-pairs stretch
    [max_{u,v} dist_sub(u,v) / dist_base(u,v)]: a shortest base path is a
    concatenation of base edges, so replacing each edge within factor [r]
    bounds every pair within [r]; conversely the pair formed by the
    worst edge achieves the edge ratio.  Runs Dijkstra in [sub] from each
    node, [O(n · m_sub · log n)].  Returns [infinity] if some base edge's
    endpoints are disconnected in [sub], [1.] for an edgeless base. *)

val vs_euclidean :
  ?pool:Adhoc_util.Pool.t -> sub:Graph.t -> points:Adhoc_geom.Point.t array -> unit -> float
(** Spanner ratio: [max_{u ≠ v} dist_sub(u,v) / |uv|] with the length cost
    model, over all node pairs.  This is distance-stretch measured against
    the underlying metric rather than against a base graph (lower bound:
    the base-graph variant, since [dist_base(u,v) >= |uv|]). *)

val per_edge_profile :
  ?pool:Adhoc_util.Pool.t -> sub:Graph.t -> base:Graph.t -> cost:Cost.t -> unit -> float array
(** The individual ratios behind {!over_base_edges}, one per base edge, for
    distribution summaries.

    All three Dijkstra sweeps above accept [?pool] to fan sources across
    domains; reductions happen on the caller in source order, so results
    are bit-identical for any pool size. *)
