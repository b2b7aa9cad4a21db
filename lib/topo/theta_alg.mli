(** ΘALG — the paper's topology-control algorithm (Section 2.1), producing
    the overlay 𝒩.

    Phase 1 builds the Yao selections [N(u)] (see {!Yao.select}).  Phase 2
    is the local degree-reduction step: every node [u] *admits* at most
    one incoming selection edge per sector — the shortest one — and an
    edge [(u,v)] survives into 𝒩 iff at least one endpoint admits it.

    The paper notes the algorithm runs in three rounds of local
    broadcasting:
    + every node broadcasts its position at maximum power;
    + every node [u] tells each [v ∈ N(u)] that it selected it;
    + every node sends a connection message to the nearest selector per
      sector (the admission step); 𝒩 keeps an edge for every pair that
      exchanged a connection message.

    Each phase reads only what its round delivers: [N(u)] the positions
    of nodes within range, and [u]'s admission the selectors that chose
    [u].  {!messages} counts the three rounds on a build.

    Guarantees reproduced by the experiments:
    - 𝒩 is connected whenever G* is, with degree ≤ [4π/θ] (Lemma 2.1);
    - 𝒩 has O(1) energy-stretch for every node distribution (Theorem 2.2,
      [theta] sufficiently small, [kappa >= 2]);
    - O(1) distance-stretch on civilized sets (Theorem 2.7). *)

type t = {
  theta : float;
  range : float;
  points : Adhoc_geom.Point.t array;
  selections : int array array;  (** phase-1 [N(u)], per node *)
  admitted : (int * int) list array;  (** phase-2: [(v, sector)] admitted into each node *)
  overlay : Adhoc_graph.Graph.t;  (** the topology 𝒩 *)
}

val build : ?pool:Adhoc_util.Pool.t -> theta:float -> range:float -> Adhoc_geom.Point.t array -> t
(** Requires [0 < theta <= 2π] (the paper's analysis needs [theta <= π/3];
    construction itself works for any positive angle) and [range >= 0].
    [?pool] parallelizes both phases' per-node loops; the result is
    bit-identical for any pool size. *)

val admit : theta:float -> Adhoc_geom.Point.t array -> int -> int list -> (int * int) list
(** [admit ~theta points u selectors] is node [u]'s phase-2 step: per
    sector of [u], the selector nearest to [u] under {!Yao.closer}, as
    [(v, sector)] pairs in ascending sector.  [selectors] are the nodes
    [v] with [u ∈ N(v)], in any order. *)

val assemble : Adhoc_geom.Point.t array -> (int * int) list array -> Adhoc_graph.Graph.t
(** [assemble points admitted] is the overlay 𝒩 of the admitted lists:
    edges inserted admitter-major, node [u]'s in its list's order. *)

val overlay : t -> Adhoc_graph.Graph.t

type messages = {
  position : int;  (** round 1: one broadcast per node, [n] *)
  neighborhood : int;  (** round 2: one unicast per selection, [Σ_u |N(u)|] *)
  connection : int;  (** round 3: one unicast per admission, [Σ_u |admitted(u)|] *)
}

val messages : t -> messages
(** The messages the three rounds send on this build. *)

val degree_bound : theta:float -> int
(** Lemma 2.1's bound [4π/θ], rounded up: admitted in-edges plus surviving
    out-edges, one of each per sector. *)

val in_yao : t -> int -> int -> bool
(** [in_yao t u v]: whether [v ∈ N(u)] (phase-1 selection). *)
