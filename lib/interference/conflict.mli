(** Interference sets, the interference number, and the conflict graph of a
    topology (paper Section 2.4, following Meyer auf der Heide et al.).

    [I(e) = { e' | e' interferes with e, or vice versa }]; the interference
    number of the graph is [max_e |I(e)|].  The conflict graph has one
    vertex per topology edge and joins interfering pairs; independent sets
    of the conflict graph are exactly the concurrently usable edge sets. *)

type t = {
  model : Model.t;
  sets : int array array;
      (** [sets.(e)] = interference set of edge [e], excluding [e] itself,
          in ascending edge-id order.  Rows are symmetric:
          [e' ∈ sets.(e)] ⇔ [e ∈ sets.(e')] (the interference relation
          is taken in both directions).  Routing's colour-class padding
          relies on this.  Treat as read-only. *)
}

val build :
  ?pool:Adhoc_util.Pool.t -> Model.t -> points:Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t -> t
(** Grid-accelerated, and each edge pays only for its own reach: edge
    [e = (u,v)] queries the grid at [r = Model.reach] around [u] and [v]
    and reports the edges incident to every node strictly inside that
    radius — [out(e)], the edges with an endpoint in [IR(e)].  An edge is
    reported at its first witness in a fixed (centre, endpoint) order, so
    a few distance tests decide it with no shared scratch, and a pair
    found from both sides is kept only by its lower id: every interfering
    pair is reported once.  The rows are then filled by counting passes,
    with no set, no comparison sort and no scratch copy of the pairs: the
    pairs reported from their higher id are transposed into the unused
    tails of the rows, then two ascending passes fill each row's part
    below and above its own id.  [?pool] parallelizes the per-edge scans;
    the assembly runs sequentially, so [sets] is bit-identical for every
    pool size and equals {!build_brute}'s. *)

val build_brute :
  Model.t -> points:Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t -> t
(** O(m²) reference implementation (test oracle). *)

val interference_number : t -> int
(** [max_e |I(e)|]; [0] for graphs with fewer than two edges. *)

val set_sizes : t -> int array

val neighborhood_bounds : t -> int array
(** [Iₑ] per edge as Section 3.3 defines it: an upper bound on the
    interference-set size of every edge that [e] interferes with (and of [e]
    itself).  Activating each edge with probability [1/(2Iₑ)] then bounds
    its collision probability by 1/2 (Lemma 3.2): for [e' ∈ I(e)] we have
    [e ∈ I(e')], hence [Iₑ' >= |I(e)|] and the union bound telescopes. *)

val interfere : t -> int -> int -> bool
(** Membership in each other's interference sets (by edge id): a binary
    search of [e]'s ascending row, O(log I).  [false] when [e = e']. *)

val adjacency : t -> int array array
(** The interference sets as arrays, indexable per edge (the internal
    [sets], not a copy — treat as read-only).  The routing engines and
    MACs use this so that collision checks walk an edge's interference
    neighbourhood instead of scanning the whole active set. *)

val greedy_coloring : t -> int array * int
(** Colours the conflict graph greedily in edge-id order; returns the
    colour per edge and the number of colours used (≤ interference number
    + 1).  Each colour class is interference-free — a valid MAC schedule.
    The taken-colour scan stamps a reusable mark array, so the whole pass
    is O(m·Δ) with no per-edge allocation. *)

val independent : t -> int list -> bool
(** Whether the given edge ids are pairwise non-interfering. *)

val max_independent_greedy : t -> int list -> int list
(** Greedy maximal independent subset of the given candidate edges
    (ascending id order) — an idealised MAC decision. *)
