(** Circles and open disks.

    Used for interference regions ([C(O, r)] in paper Section 2.4), the
    Gabriel-graph empty-disk test, and Delaunay circumcircle tests. *)

type t = { center : Point.t; radius : float }

val make : Point.t -> float -> t

val contains : t -> Point.t -> bool
(** Open-disk membership: strictly inside the circle. *)

val contains_closed : t -> Point.t -> bool
(** Closed-disk membership. *)

val intersects : t -> t -> bool
(** Whether the two open disks overlap. *)

val diametral : Point.t -> Point.t -> t
(** The disk with the segment [uv] as diameter (Gabriel test disk). *)

val circumcircle : Point.t -> Point.t -> Point.t -> t option
(** Circle through three points; [None] if they are (numerically)
    collinear. *)

val in_circumcircle : Point.t -> Point.t -> Point.t -> Point.t -> bool
(** [in_circumcircle a b c p] tests whether [p] lies strictly inside the
    circumcircle of triangle [abc], using the robust-ish determinant form
    (sign corrected for triangle orientation).  Plain float arithmetic:
    it allocates nothing. *)
