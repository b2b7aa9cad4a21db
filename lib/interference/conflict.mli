(** Interference sets, the interference number, and the conflict graph of a
    topology (paper Section 2.4, following Meyer auf der Heide et al.).

    [I(e) = { e' | e' interferes with e, or vice versa }]; the interference
    number of the graph is [max_e |I(e)|].  The conflict graph has one
    vertex per topology edge and joins interfering pairs; independent sets
    of the conflict graph are exactly the concurrently usable edge sets. *)

type partners = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Edge ids as 32-bit integers, flat outside the OCaml heap: half the
    memory of an [int array], and never scanned by the garbage collector.
    Read entry [k] as [Int32.to_int partners.{k}]; that read allocates
    nothing. *)

type t = {
  model : Model.t;
  offsets : int array;
      (** Length [m + 1], non-decreasing, from [0] to the number of
          entries: edge [e]'s interference set is the slice
          [partners.{offsets.(e)} .. partners.{offsets.(e + 1) - 1}], and
          [offsets.(e + 1) - offsets.(e)] is its size. *)
  partners : partners;
      (** Every row back to back (compressed sparse rows).  Row [e] =
          interference set of edge [e], excluding [e] itself, strictly
          ascending.  Rows are symmetric: [e'] is in row [e] ⇔ [e] is in
          row [e'] (the interference relation is taken in both
          directions); routing's colour-class padding relies on this.
          Both arrays are read only. *)
}
(** The conflict graph in one CSR structure (compressed sparse rows):
    [m + 1] offsets and one flat array of partner ids, so a reader walks
    a row as a slice with no per-row array.  Holding the [2P] entries of
    [P] interfering pairs takes [8(m + 1) + 8P] bytes. *)

val build :
  ?pool:Adhoc_util.Pool.t -> Model.t -> points:Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t -> t
(** Grid-accelerated, and each edge pays only for its own region.  Edge
    [e = (u,v)] with [r = Model.reach] scans once the grid cells that
    cover the union of its two open guard disks (the grid's cell is the
    longest reach, so at most 4 × 4 cells), tests each node there once
    against both centres on the grid's flat coordinates, and walks the
    incidence of every node strictly inside with no closure: [out(e)], the
    edges with an endpoint in [IR(e)].  Each such edge is reported once,
    at its lowest endpoint inside [IR(e)], and a pair found from both
    sides is kept only by its lower id, so every interfering pair is
    reported once, into a per-edge int buffer.  An edge's scan costs one
    distance test or two per node of its box plus, per incident edge of
    an inside node, at most six more; on build-4k's input (4096 points,
    15 923 edges) that is about 340 000 inside nodes and 2.7M
    incident-edge visits for 705 000 pairs.  The rows are then
    filled by counting passes, with no set, no comparison sort and no
    pair-sized scratch: the pairs reported from their higher id are
    transposed into the unused tails of the rows, then two ascending
    passes fill each row's part below and above its own id.  [?pool]
    parallelizes the per-edge scans; the assembly runs sequentially, so
    the rows are bit-identical for every pool size and equal those of
    the O(m²) pairwise scan.  Raises [Invalid_argument] when edge ids do
    not fit in 31 bits. *)

val num_edges : t -> int
(** The number of rows: the topology's edge count. *)

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

val stamp_row : t -> int array -> int -> int -> unit
(** [stamp_row t marks e v] writes [v] into [marks.(e')] for every [e'] in
    row [e], with no allocation: the padding's and the certifier's
    stamped tests. *)

val row_marked : t -> bool array -> int -> bool
(** Whether [marks.(e')] holds for some [e'] in row [e], with no
    allocation: the collision check and the carrier-sense MACs. *)

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
