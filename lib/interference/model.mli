(** Pairwise guard-zone interference model (paper Section 2.4).

    A message exchange on edge [(x,y)] is bidirectional (data plus
    acknowledgment), so its interference region is
    [IR(x,y) = C(x, (1+Δ)·|xy|) ∪ C(y, (1+Δ)·|xy|)] — the union of two open
    disks.  Edge [e'] interferes with [e] when [IR(e')] contains an endpoint
    of [e]; the symmetric closure of this relation defines interference
    sets. *)

type t = { delta : float }
(** [delta] is the protocol guard-zone parameter Δ ≥ 0. *)

val make : delta:float -> t
(** Raises [Invalid_argument] unless [delta] is finite and [>= 0]: a NaN
    guard zone would cover nothing and silently empty every interference
    set. *)

val region_radius : t -> float -> float
(** [(1+Δ) · len]. *)

val reach : t -> points:Adhoc_geom.Point.t array -> x:int -> y:int -> float
(** [(1+Δ) · |xy|] measured on the points: the radius of both disks of
    [IR(x,y)].  {!in_region} and [Conflict.build] both take the radius from
    here, so their strict [dist² < reach²] verdicts agree bit for bit. *)

val in_region :
  t ->
  points:Adhoc_geom.Point.t array ->
  x:int ->
  y:int ->
  Adhoc_geom.Point.t ->
  bool
(** Whether a point lies in the open interference region of the exchange
    between nodes [x] and [y]. *)

val one_way :
  t -> points:Adhoc_geom.Point.t array -> src:int * int -> dst:int * int -> bool
(** [one_way t ~points ~src:(a,b) ~dst:(u,v)]: the exchange [a↔b] puts an
    endpoint of [(u,v)] inside its interference region — i.e. [(a,b)]
    interferes with [(u,v)] in the directed sense. *)

val interferes :
  t -> points:Adhoc_geom.Point.t array -> int * int -> int * int -> bool
(** Symmetric interference between two node pairs (either direction of
    {!one_way}).  Two copies of the same pair interfere unless its
    endpoints coincide: a zero-length pair's open disks are empty. *)
