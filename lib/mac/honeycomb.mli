(** The honeycomb contestant-selection MAC — paper Section 3.4, Figure 5.

    All nodes share a fixed transmission range (normalised to 1).  The plane
    is tiled by hexagons of side [3 + 2Δ]; each requested transmission is
    assigned to the hexagon containing its sender.  Within each hexagon only
    the request of maximum benefit survives; if its benefit exceeds the
    threshold [t] it becomes a *contestant* and transmits with probability
    [p_t].  Lemma 3.7: [p_t <= 1/6] makes every contestant succeed with
    probability at least 1/2, yielding the O(1)-competitive Theorem 3.8. *)

type t

val create :
  ?p_t:float ->
  delta:float ->
  range:float ->
  threshold:float ->
  rng:Adhoc_util.Prng.t ->
  Adhoc_geom.Point.t array ->
  t
(** [p_t] defaults to [1/6].  [threshold] is the contestant threshold [T].
    The hexagon side is [(3 + 2·delta) · range] — the paper normalises the
    fixed transmission range to 1. *)

val mac : t -> Mac.t
(** The protocol as a {!Mac.t}.  Each hexagon's contestant is the first
    of its requests with the largest benefit; contestants flip their
    coins, and are granted, in ascending hexagon order. *)

val hexagon_of : t -> int -> Adhoc_geom.Hexgrid.coord
(** Hexagon assignment of each node (by index). *)

val grid : t -> Adhoc_geom.Hexgrid.t
