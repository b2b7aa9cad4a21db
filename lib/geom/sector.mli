(** Angular sectors (cones) around a node — the core geometric primitive of
    the Yao graph and of ΘALG (paper Section 2.1).

    Each node divides the full angle into [count theta] sectors of width
    [theta], sector [i] covering polar angles [[i·theta, (i+1)·theta)].
    [theta] must satisfy [0 < theta <= pi /. 3.] for the paper's stretch
    analysis, but the module itself accepts any positive finite width, which
    divides [2π] into at least one sector. *)

val count : float -> int
(** Number of sectors, [ceil (2π / theta)].  The last sector may be narrower
    when [theta] does not divide [2π] exactly. *)

val index : theta:float -> apex:Point.t -> Point.t -> int
(** [index ~theta ~apex p] is the sector of [apex] containing [p] — the
    paper's [S(apex, p)].  Requires [p <> apex]. *)

val same : theta:float -> apex:Point.t -> Point.t -> Point.t -> bool
(** Whether two points lie in the same sector of [apex]. *)
