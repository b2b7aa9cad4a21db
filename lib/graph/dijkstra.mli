(** Single-source shortest paths with a pluggable edge-cost model. *)

type result = {
  dist : float array;  (** [infinity] for unreachable nodes *)
  pred : int array;  (** predecessor node on a shortest path; [-1] at the source and for unreachable nodes *)
  pred_edge : int array;  (** edge id into the predecessor; [-1] likewise *)
}

val run : Graph.t -> cost:Cost.t -> src:int -> result

val run_to : Graph.t -> cost:Cost.t -> src:int -> dst:int -> result
(** Same, but may stop early once [dst] is settled. *)

val distance : Graph.t -> cost:Cost.t -> int -> int -> float
(** Shortest-path cost between two nodes ([infinity] if disconnected). *)

val path : result -> int -> int list option
(** Node sequence from the source to the argument, inclusive, or [None]
    if unreachable. *)

val path_edges : result -> int -> int list option
(** Edge-id sequence of the shortest path to the argument. *)
