(** Line-segment predicates: orientation, proper intersection, distance.
    The convex hull turns on {!orientation}; the tests check embeddings
    for crossings with {!properly_intersects}. *)

val orientation : Point.t -> Point.t -> Point.t -> int
(** Sign of the cross product [(b-a) × (c-a)]: [1] counter-clockwise,
    [-1] clockwise, [0] collinear (within 1e-12). *)

val on_segment : Point.t -> Point.t -> Point.t -> bool
(** [on_segment a b p]: collinear [p] lies within the closed bounding box
    of [ab]. *)

val intersects : Point.t * Point.t -> Point.t * Point.t -> bool
(** Whether the two closed segments share any point. *)

val properly_intersects : Point.t * Point.t -> Point.t * Point.t -> bool
(** Intersection at a single interior point of both segments — i.e. a true
    crossing, not a shared endpoint or a touching. *)

val distance_to_point : Point.t -> Point.t -> Point.t -> float
(** [distance_to_point a b p]: Euclidean distance from [p] to segment
    [ab]. *)
