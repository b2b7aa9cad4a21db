(** The orientation predicate the convex hull turns on. *)

val orientation : Point.t -> Point.t -> Point.t -> int
(** Sign of the cross product [(b-a) × (c-a)]: [1] counter-clockwise,
    [-1] clockwise, [0] collinear (within 1e-12). *)
