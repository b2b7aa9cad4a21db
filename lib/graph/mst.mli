(** Euclidean minimum spanning tree (Kruskal), a classical baseline for the
    topology-comparison experiment and the bottom of the proximity-graph
    chain [MST ⊆ RNG ⊆ Gabriel ⊆ Delaunay].

    One Kruskal on flat arrays serves every entry point: candidate
    endpoints in two int arrays, lengths in a float array, an index
    permutation ordered by a stable merge sort over the lengths, and
    {!Adhoc_util.Union_find} to pick the tree edges. *)

val ascending : float array -> int array
(** [ascending keys] is the indices [0 .. k-1] in ascending
    [Float.compare] order of [keys], equal keys in index order: the
    stable, closure-free merge sort {!kruskal} orders its candidates
    with.  Sorting a permutation by one key after another (least
    significant first) orders it lexicographically. *)

val kruskal : int -> int array -> int array -> float array -> Graph.t
(** [kruskal n us vs lens] is the minimum spanning forest, on nodes
    [0 .. n-1], of the candidate edges [i] joining [us.(i)] and [vs.(i)]
    at length [lens.(i)].  Candidates are taken in ascending
    [Float.compare] order of length, equal lengths in index order, and
    the output's edge ids follow the order in which they are taken;
    repeated pairs and self-loops are allowed.  O(k log k) time and O(k)
    words for k candidates, with no comparison closure.  Raises
    [Invalid_argument] when the three arrays differ in length. *)

val of_graph : Graph.t -> Graph.t
(** Minimum spanning forest of the input (spanning tree per component),
    minimizing total edge length; candidates in edge-id order. *)
