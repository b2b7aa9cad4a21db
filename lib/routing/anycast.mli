(** Cost-aware anycast balancing.

    The paper notes (Section 1.2) that Awerbuch, Brinkmann & Scheideler
    extended balancing to "arbitrary anycasting situations", and that this
    paper's contribution is incorporating edge costs; this module combines
    the two: packets are addressed to *groups* of destinations and absorbed
    at whichever member they reach first, with the (T, γ) rule applied to
    per-(node, group) buffer heights.

    Buffer heights of every group member are pinned to zero, so the
    gradient naturally pulls each packet toward its cheapest-to-reach
    member — no explicit nearest-sink computation anywhere.  This is the
    step kernel ({!Engine.run}) with [Group] absorption. *)

type group = int array
(** A non-empty set of destination nodes. *)

type stats = {
  steps : int;
  injected : int;
  dropped : int;
  delivered : int;
  sends : int;
  total_cost : float;
  remaining : int;
  per_member : (int * int) list;  (** (member node, deliveries absorbed there) *)
}

val run :
  ?cooldown:int ->
  ?pad:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  groups:group array ->
  injections:(int -> (int * int) list) ->
  horizon:int ->
  unit ->
  stats
(** [injections t] yields [(src, group_index)] packets injected at step [t]
    ([t < horizon]); a group index out of range or a source that is not a
    node raises [Invalid_argument].  Edges are activated by colour classes
    of [pad] when given (each class in descending edge-id order),
    otherwise every edge is active every step.  Absorption happens the
    moment a packet is moved onto (or injected at) any member of its
    group. *)
