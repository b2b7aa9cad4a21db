(** Honeycomb (regular hexagonal) tiling of the plane — Figure 5 of the
    paper.

    The honeycomb algorithm of Section 3.4 partitions the plane into
    hexagons of side length [3 + 2Δ] and elects one contestant
    sender–receiver pair per hexagon.  This module maps points to hexagon
    identifiers and enumerates neighbouring hexagons.

    We use pointy-top hexagons in axial coordinates [(q, r)]: the hexagon
    with axial coordinates [(q, r)] has center
    [x = side · √3 · (q + r/2)], [y = side · 3/2 · r]. *)

type coord = { q : int; r : int }
(** Axial coordinates of a hexagon. *)

type t
(** A tiling with a fixed side length. *)

val make : side:float -> t
(** Requires [side > 0]. *)

val side : t -> float

val of_point : t -> Point.t -> coord
(** The hexagon containing the point (boundary ties broken consistently by
    cube-rounding). *)

val center : t -> coord -> Point.t

val neighbors : coord -> coord list
(** The six adjacent hexagons. *)

val ring : coord -> int -> coord list
(** All hexagons at hex-distance exactly [k] ([k >= 0]; the ring of radius 0
    is the singleton). *)

val disk : coord -> int -> coord list
(** All hexagons at hex-distance at most [k]. *)

val compare_coord : coord -> coord -> int
val equal_coord : coord -> coord -> bool

val group_points : t -> Point.t array -> (coord * int list) list
(** Buckets the indices of the point array by containing hexagon. *)
