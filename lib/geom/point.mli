(** Points (and vectors) in the 2-dimensional Euclidean plane.

    The paper places ad hoc network nodes in the plane and measures
    transmission energy as [|uv|^kappa]; everything geometric in the library
    is expressed through this module. *)

type t = { x : float; y : float }

val make : float -> float -> t
val origin : t

val ( +@ ) : t -> t -> t
(** Componentwise sum (vector addition). *)

val ( -@ ) : t -> t -> t
(** Componentwise difference: [b -@ a] is the vector from [a] to [b]. *)

val scale : float -> t -> t

val dot : t -> t -> float
val cross : t -> t -> float
(** z-component of the 3-D cross product; positive when the second vector is
    counter-clockwise of the first. *)

val norm : t -> float
val norm2 : t -> float

val dist : t -> t -> float
(** Euclidean distance. *)

val dist2 : t -> t -> float
(** Squared distance (no square root; use for comparisons). *)

val energy : ?kappa:float -> t -> t -> float
(** [energy ~kappa u v = |uv|^kappa], the transmission-energy cost of the
    direct link (paper Section 2.2).  Default [kappa = 2.]. *)

val midpoint : t -> t -> t

val angle_of : t -> t -> float
(** [angle_of u v] is the polar angle of the vector from [u] to [v], in
    [[0, 2π)].  Undefined for coincident points (returns [0.]). *)

val lerp : t -> t -> float -> t
(** [lerp a b t] is [a + t·(b − a)]. *)

val equal : t -> t -> bool
(** Exact float equality on both coordinates. *)

val compare : t -> t -> int
(** Lexicographic order. *)

val to_string : t -> string
(** ["(x, y)"], each coordinate printed with [%g]. *)
