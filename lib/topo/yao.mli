(** Phase 1 of ΘALG: the Yao graph 𝒩₁ (paper Section 2.1; Yao 1982).

    Each node [u] partitions the plane into sectors of angle [theta] and
    selects, in every sector, the nearest node within transmission range —
    the set [N(u)].  The undirected union of the selection edges is the Yao
    graph, a spanner with O(1) energy-stretch but worst-case Ω(n) in-degree.

    Ties in distance are broken by node index, implementing the paper's
    "all pairwise distances are unique" assumption. *)

val closer : Adhoc_geom.Point.t array -> int -> int -> int -> bool
(** [closer points u a b]: node [a] is strictly closer to [u] than [b] under
    the (distance, index) tie-breaking order.  The shared order used by both
    phases of ΘALG. *)

val select :
  theta:float ->
  range:float ->
  Adhoc_geom.Point.t array ->
  int ->
  ((int -> unit) -> unit) ->
  int array
(** [select ~theta ~range points u iter_candidates] is node [u]'s phase-1
    step, [N(u)] in ascending node order.  [iter_candidates consider] must
    call [consider v] for every node [v] within [range] of [u], in any
    order; [select] skips [u] itself and every node out of range.  The
    arguments are not checked ({!selections} checks them). *)

val selections :
  ?pool:Adhoc_util.Pool.t -> theta:float -> range:float -> Adhoc_geom.Point.t array -> int array array
(** [selections ~theta ~range points] returns [N]: [N.(u)] lists the nodes
    selected by [u], one per non-empty sector (each is the nearest node of
    the sector at distance ≤ [range]), in ascending node order.
    Requires a finite [theta > 0] and [range >= 0] ([infinity] for
    unbounded).
    [?pool] parallelizes the per-node selection; output is bit-identical
    for any pool size. *)

val graph :
  ?pool:Adhoc_util.Pool.t -> theta:float -> range:float -> Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t
(** The (undirected) Yao graph 𝒩₁: edge [(u,v)] iff [v ∈ N(u)] or
    [u ∈ N(v)]. *)
