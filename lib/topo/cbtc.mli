(** Cone-based topology control (CBTC) — the distributed power-control
    algorithm of Wattenhofer, Li, Bahl & Wang (INFOCOM 2001), the closest
    prior work the paper discusses (Section 1.2, [43] and [31]).

    Each node grows its transmission power until every cone of angle
    [alpha] around it contains a reachable neighbour (or maximum power is
    reached).  With [alpha <= 2π/3] the union of the resulting links
    preserves the connectivity of the maximum-power graph.  Unlike ΘALG,
    CBTC controls *power*, not degree: its node degrees are not bounded by
    a constant — experiment E11 puts the two side by side. *)

type t = {
  alpha : float;
  radii : float array;  (** chosen transmission radius per node *)
  graph : Adhoc_graph.Graph.t;  (** symmetric links: [|uv| <= min(r_u, r_v)] *)
  asymmetric : Adhoc_graph.Graph.t;  (** links where at least one side reaches *)
}

val build : ?pool:Adhoc_util.Pool.t -> alpha:float -> range:float -> Adhoc_geom.Point.t array -> t
(** [range] is the maximum transmission radius.  Requires
    [0 < alpha <= 2π].  Neighbour gathers go through a spatial grid with
    exact re-filtering, and [?pool] parallelizes the per-node radius
    growth and link derivation; the result is bit-identical to the brute
    sequential construction. *)
