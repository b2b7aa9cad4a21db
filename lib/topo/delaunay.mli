(** Delaunay triangulation (Bowyer–Watson incremental construction) and the
    restricted Delaunay graph — spanner baselines from the paper's related
    work (Section 1.2).

    The Delaunay triangulation is a spanner but may contain edges longer
    than the transmission range; the *restricted* Delaunay graph keeps only
    edges of length ≤ range and is still a spanner (Gao et al. 2001), though
    with worst-case Ω(n) degree. *)

val triangles : Adhoc_geom.Point.t array -> (int * int * int) list
(** Triangles of the Delaunay triangulation, vertex indices in ascending
    order.  Exact duplicates among the input points are ignored (the first
    occurrence wins); fewer than three non-collinear points give [[]].

    Points are inserted in a fixed order: the first two, the first point
    off their line, the points skipped on the way, then the rest in input
    order.  The list is newest first: by the insertion rank of the
    triangle's last-inserted vertex, descending, then by its other two
    vertices, descending.  The order is a function of the triangle set, so
    it decides [build]'s edge ids reproducibly.

    The triangles are the ones a test of every live triangle per insertion
    finds, as long as the floating-point predicates agree with each other.
    On sets within about 1e-12 of collinear, or with coordinates that are
    not finite or whose squares overflow, they contradict each other; the
    result can then differ from such a scan's, and neither need be a
    triangulation.

    Each insertion locates the point by a walk from the last triangle
    created, then tests only the triangles whose circumcircles contain it
    and their neighbours: about 20 circumcircle tests per insertion on
    uniform points and 45–65 on a jittered grid (n = 1024–16384).  The walk
    takes O(√n) steps on uniform points, which arrive in input order; on an
    exact grid, whose rows leave long fans of cocircular triangles, the
    walk and the tests both grow like √n.  Memory is O(n).  The walk and
    the circumcircle tests run on plain floats and box nothing, so the
    minor heap sees O(n) words in all: the duplicate filter, the
    insertion order and the result list, about 24 words per point on
    build-4k's input.  The newest-first order comes from three stable
    counting passes, in O(n). *)

val build : ?range:float -> Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t
(** Edge set of the triangulation; [range] gives the restricted Delaunay
    graph. *)
