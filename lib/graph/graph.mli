(** Undirected weighted graphs over integer-indexed nodes.

    Node identity is an index into a caller-owned array (usually of
    {!Adhoc_geom.Point.t} positions).  Edges carry a length — for geometric
    graphs, the Euclidean distance between endpoints — and every edge has a
    stable integer id usable as an array index by the interference and
    routing layers.

    Storage is struct-of-arrays: three flat endpoint/length arrays indexed
    by edge id, plus a CSR adjacency (prefix offsets into flat neighbour
    and edge-id arrays).  The builder appends to growable flat arrays and
    dedups once at {!Builder.build} by counting passes, so construction
    allocates O(1) amortised per edge and runs in O(k + n) for k
    insertions on n nodes. *)

type edge = private { u : int; v : int; len : float }
(** Undirected edge with [u < v].  Materialised on demand from the flat
    arrays; use {!edge_u}/{!edge_v}/{!length} in allocation-sensitive
    loops. *)

type t
(** Immutable graph. *)

module Builder : sig
  type graph := t
  type t

  val create : int -> t
  (** [create n] prepares a builder for a graph on nodes [0 .. n-1]. *)

  val add_edge : t -> int -> int -> float -> unit
  (** Adds an undirected edge with the given length.  Self-loops are
      ignored; duplicate pairs are dropped at {!build} time (first
      insertion wins).  Lengths must be non-negative. *)

  val mem : t -> int -> int -> bool
  (** Whether the pair has been inserted.  O(insertions) scan — meant for
      tests and oracles, not hot loops. *)

  val build : t -> graph
  (** Freezes the builder.  Edge ids are assigned in insertion order of
      each pair's first occurrence.  Two stable counting passes over the
      insertion log, by the larger endpoint and then by the smaller, find
      those first occurrences with no comparison sort: O(k + n) time and
      O(k + n) words for k insertions on n nodes. *)
end

val of_edges : n:int -> (int * int * float) list -> t

val geometric : Adhoc_geom.Point.t array -> (int * int) list -> t
(** Builds a graph whose edge lengths are the Euclidean distances between
    the given endpoint positions. *)

val n : t -> int
val num_edges : t -> int

val edge : t -> int -> edge
(** Edge by id; ids are [0 .. num_edges - 1].  Allocates; prefer
    {!edge_u}/{!edge_v}/{!length} in hot loops. *)

val edge_u : t -> int -> int
(** Lower endpoint of the edge (no allocation). *)

val edge_v : t -> int -> int
(** Upper endpoint of the edge (no allocation). *)

val edge_us : t -> int array
(** Every edge's lower endpoint, by edge id ([(edge_us g).(e)] is
    [edge_u g e]), for loops that read endpoints with no call per edge.
    The graph's own array, not a copy: read only. *)

val edge_vs : t -> int array
(** Every edge's upper endpoint, by edge id (read only). *)

val endpoints : t -> int -> int * int

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e u] is the endpoint of edge [e] that is not [u]. *)

val length : t -> int -> float

val mem_edge : t -> int -> int -> bool
val find_edge : t -> int -> int -> int option
(** Edge id connecting the two nodes, if present. *)

val degree : t -> int -> int
val max_degree : t -> int

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v edge_id] for each neighbour [v], in
    ascending edge-id order. *)

val incidence_offsets : t -> int array
(** The CSR incidence, for loops that walk it with no closure: node [u]'s
    incident edges sit in slots [off.(u) .. off.(u + 1) - 1] of
    {!incidence_nodes} and {!incidence_edges}, in {!iter_neighbors}'
    order, where [off] is this array (length [n + 1]).  The three are the
    graph's own arrays, not copies: read only. *)

val incidence_nodes : t -> int array
(** The neighbour in each incidence slot. *)

val incidence_edges : t -> int array
(** The edge id in each incidence slot. *)

val fold_edges : t -> init:'a -> f:('a -> int -> edge -> 'a) -> 'a

val total_length : t -> float
val total_energy : ?kappa:float -> t -> float
(** Sum over edges of [len^kappa] (default [kappa = 2.]). *)

val union : t -> t -> t
(** Union of edge sets (same node count required); lengths from the first
    graph win on duplicates. *)
