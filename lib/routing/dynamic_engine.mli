(** Routing over a *changing* topology — the dynamics of the paper's
    adversarial model made concrete: the network is a sequence of epochs
    (e.g. snapshots of a mobile deployment), buffers persist across epochs,
    and the (T, γ)-balancing rule keeps operating on whatever edges the
    current epoch offers.

    Within an epoch, edges are activated by colour classes of the epoch's
    conflict structure (an interference-free TDMA MAC), so each step's
    active set is valid under the guard-zone model.  Each epoch is one
    {!Engine.phase} of the step kernel with [Rounds] activation.  Because certifying an
    optimal schedule across adversarial topology changes is exactly the
    intractable OPT, this engine reports absolute delivery metrics rather
    than competitive ratios. *)

type epoch = {
  graph : Adhoc_graph.Graph.t;  (** topology for this epoch; same node count throughout *)
  conflict : Adhoc_interference.Conflict.t;
  steps : int;
}

val epoch_of_points :
  ?delta:float ->
  ?theta:float ->
  ?range_factor:float ->
  steps:int ->
  Adhoc_geom.Point.t array ->
  epoch
(** Convenience: ΘALG overlay + conflict structure for one snapshot
    (defaults: Δ = 0.5, θ = π/6, range = 1.5 × connectivity threshold). *)

val run :
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  epochs:epoch list ->
  injections:(int -> (int * int) list) ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  unit ->
  Engine.stats
(** [injections t] gives the (src, dest) packets injected at global step
    [t]; steps count across all epochs.  Packets buffered at a node whose
    current epoch offers no useful edge simply wait — exactly the paper's
    model, where progress resumes whenever the adversary re-enables a
    path.  No epochs, epochs whose graphs disagree on node count, and an
    injected source or destination that is not a node raise
    [Invalid_argument] naming [Dynamic_engine.run] (and, for an
    injection, the id).

    [obs] behaves as in {!Engine.run_mac_given}: [engine/decide] /
    [engine/apply] spans, [engine.*] counters and the max-height
    histogram; an attached event log additionally gets one
    [Epoch_change] per epoch (at the global step it starts), and the
    usual inject / send / deliver events.  [None] leaves the run
    bit-identical.

    [pool] fans each step's colour-class decision computations out on the
    domain pool (decide-parallel / apply-sequential, as in
    {!Engine.run_mac_given}); results are bit-identical for every pool
    size. *)
