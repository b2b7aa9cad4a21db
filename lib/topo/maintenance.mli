(** Incremental maintenance of the ΘALG overlay under node motion.

    The paper's headline is that ΘALG "establishes and *maintains*" the
    topology with local control: because phase-1 selections of a node
    depend only on nodes within transmission range, and phase-2 admissions
    only on selectors within range, a position change can only affect
    nodes within [2 × range] of the old and new positions.  This module
    re-runs ΘALG's two per-node steps ({!Yao.select}, {!Theta_alg.admit})
    on exactly that affected set and reassembles the overlay from the
    admitted lists ({!Theta_alg.assemble}).

    The incremental result is identical to a full rebuild (tested); the
    point is the accounting: [last_affected] exposes how many nodes were
    re-processed, which stays flat as the network grows — experiment
    E17. *)

type t

val create : theta:float -> range:float -> Adhoc_geom.Point.t array -> t

val overlay : t -> Adhoc_graph.Graph.t
val points : t -> Adhoc_geom.Point.t array
(** Current positions (a fresh copy). *)

val move : t -> int -> Adhoc_geom.Point.t -> unit
(** Move one node and repair the overlay locally. *)

val last_affected : t -> int
(** Number of nodes whose selections or admissions were recomputed by the
    most recent {!move} ([0] before any move). *)
