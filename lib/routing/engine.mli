(** Discrete-time routing simulation driving the (T, γ)-balancing algorithm
    over a workload.  Every engine in this library is a front-end to one
    step kernel, {!run}: each step it activates edges, decides each active
    edge's best send on start-of-step heights (through an incremental
    per-edge cache, fanned out on the pool when one is given), applies
    the sends deliveries first, injects, and samples.  The kernel takes
    three parameters — which edges are active, which neighbour heights a
    sender sees, and where a packet is absorbed — and the paper's
    settings differ only in those:

    - {!run_mac_given} — Scenario 1 (Theorem 3.1): each step the adversary
      hands the router a set of non-interfering active edges (the
      workload's activations, optionally padded with conflict-graph colour
      classes) and the router balances over them.
    - {!run_with_mac} — Scenarios 2 and 3 (Theorems 3.3 / 3.8): the router
      sees the whole topology, a {!Adhoc_mac.Mac.t} grants transmission
      attempts, and granted attempts that still interfere all fail (both
      packets stay, the transmission energy is spent).  Although every
      edge is a candidate, a step costs O(stale edges + requests), not
      O(m): only edges at a node whose heights changed are re-decided
      (see {!Arbitrated}).

    The other settings are calls to {!run} itself: a changing topology is
    one phase per epoch, §3.2's reduced control exchange is the
    {!Advertised} height view, and anycast is {!Group} absorption. *)

type stats = {
  steps : int;
  injected : int;  (** admitted into source buffers *)
  dropped : int;  (** rejected by admission control (full source buffer) *)
  delivered : int;
  sends : int;  (** transmission attempts, successful or not *)
  failed_sends : int;  (** collided attempts (MAC scenarios only) *)
  total_cost : float;  (** cost of all attempts *)
  peak_height : int;  (** highest buffer height observed *)
  remaining : int;  (** packets still buffered at the end *)
}

val throughput_ratio : stats -> Workload.opt_stats -> float
(** [delivered / opt.deliveries].  [0.] when OPT delivered nothing: a run
    with no certified deliveries to compete against earns nothing, rather
    than a spuriously perfect ratio. *)

val cost_ratio : stats -> Workload.opt_stats -> float
(** Average cost per delivery relative to OPT's.  [Float.nan] when the run
    delivered nothing (or OPT's average cost is not positive): the ratio is
    undefined, and reporting [1.] would make a run that delivers nothing
    look perfect.  Bench tables render it as [n/a]. *)

(** Precomputed colour-class padding for Scenario-1 engines: colour classes
    are built once per run, and conflict rows are read in place.  Per
    step, every base edge stamps itself and its conflict row into a
    reusable per-edge int array, and a class edge is kept exactly when its
    stamp is stale.  A step therefore costs O(|base|·I + |class|), with I
    the interference number, and allocates nothing.  The stamp test is
    exact because {!Adhoc_interference.Conflict} rows are symmetric: a
    base edge lists a class edge in its row exactly when the class edge
    lists the base edge. *)
module Pad : sig
  type t

  val create : Adhoc_interference.Conflict.t -> t

  val active : t -> step:int -> into:int array -> int list -> int
  (** [active p ~step ~into base] writes [base] plus the step's colour
      class (round robin) into the scratch array [into] — minus class
      edges that are in the base or interfere with a base edge, extras
      following the base in ascending edge-id order — and returns the live
      count.  [into] must hold [|base|] plus the class size; [m] entries
      suffice for a duplicate-free base. *)
end

(** {1 The step kernel} *)

(** Which edges are active each step. *)
type activation =
  | Given of Workload.t * Adhoc_interference.Conflict.t option
      (** the workload's activations (none after its horizon), padded
          with the conflict graph's colour classes round robin as in
          {!Pad} *)
  | Rounds of Adhoc_interference.Conflict.t option
      (** the conflict graph's colour classes round robin, each in
          descending edge-id order; without one, every edge each step in
          ascending order *)
  | Arbitrated of Adhoc_mac.Mac.t * Adhoc_interference.Conflict.t option
      (** every edge requests its better direction, the MAC grants, and
          granted edges that interfere under the conflict graph collide.
          Arbitration runs outside the [engine/decide] and [engine/apply]
          spans.

          An edge's request depends only on the heights at its two
          endpoints, so a step re-decides only the edges at nodes whose
          heights changed during the previous step (all of them on a
          phase's first step), and the requesting edges are kept as a
          sorted set updated from those.  The decide phase therefore
          costs O(stale edges + requests) instead of O(m).  The MAC
          reads that set in place, as the parallel arrays of
          {!Adhoc_mac.Mac.t}'s [select]: the same requests, with the
          same values, in ascending edge id, as a scan of every edge
          would list them, so a randomized MAC draws the same coins.
          The granted sends are applied in a stable sort of the MAC's
          grant order. *)

(** Which heights a sender sees at its neighbour. *)
type heights =
  | Live  (** the neighbour's buffers as they stand *)
  | Advertised of { quantum : int; adverts : int ref }
      (** §3.2's reduced control exchange: a node re-broadcasts its
          heights when one has drifted by more than [quantum] from the
          value last advertised, and neighbours decide against the
          advertised values.  A negative [quantum] raises
          [Invalid_argument] naming [who].  With [quantum = 0] the run is
          the [Live] run.  Stale heights cannot break safety, since a
          send still needs a packet in the sender's real buffer; they
          delay or misdirect a send by at most [quantum] per hop, which
          the threshold T absorbs once T > 2·[quantum].

          Each step opens with an [engine/advertise] pass.  Every
          broadcast adds one to [adverts] and is a [Height_advert]
          event; a sink gets the run's count as the
          [engine.height_adverts] counter. *)

(** Where a packet is absorbed. *)
type absorb =
  | Destination  (** at its destination node *)
  | Group of { members : int array array; absorbed : int array }
      (** anycast (§1.2), with edge costs: an injection [(src, g)] names
          group [g] and is absorbed at any member of [members.(g)].  A
          member never buffers its group's packets, so its height for
          the group stays zero, and the gradient pulls each packet
          towards its cheapest member to reach with no nearest-sink
          computation.  Deliveries are counted per node into
          [absorbed].  An empty group, a member that is not a node or an
          [absorbed] whose length is not the node count raises
          [Invalid_argument] naming [who].  Group [g]'s buffers are
          keyed [n + g], so no group key can be mistaken for a node;
          events see that key. *)

(** A stretch of steps on one topology. *)
type phase = {
  graph : Adhoc_graph.Graph.t;
  cost : Adhoc_graph.Cost.t;
  activation : activation;
  steps : int;
  epoch : int option;
      (** opens with an [Epoch_change] event when [Some].  Phases over a
          changing topology share their buffers, and a packet waits
          wherever its epoch offers no useful edge.  No OPT is certified
          across adversarial topology changes (that is the intractable
          OPT itself), so such runs report absolute counts, not ratios. *)
}

val run :
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?cost_at:(step:int -> edge:int -> float) ->
  who:string ->
  params:Balancing.params ->
  heights:heights ->
  absorb:absorb ->
  injections:(int -> (int * int) list) ->
  phase list ->
  stats
(** Runs the phases back to back over one set of buffers; their graphs
    must share a node count, or [Invalid_argument] names [who].  Steps
    count across phases, and [injections t] gives step [t]'s [(src, dst)]
    packets.  Every injected id is checked: a source or destination that
    is not a node raises [Invalid_argument] naming [who] and the id, and
    with {!Group} a destination that is not a group index raises
    [Invalid_argument (who ^ ": bad group index")].  {!Advertised} and
    {!Group} check their arguments as their docs say.  The optional
    arguments behave as in {!run_mac_given}. *)

val run_mac_given :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?cost_at:(step:int -> edge:int -> float) ->
  ?pad:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  Workload.t ->
  stats
(** [on_step] fires after every simulated step with the cumulative delivery
    count and the packets currently buffered — the hook the time-series
    figures use.  [cost_at] lets the adversary change edge costs per step
    (Section 3.1: costs "may change from one step to another"); it
    overrides [cost] for both the balancing penalty and the accounting.
    [cooldown] extra steps after the horizon let in-flight packets drain;
    during them (and, padded, during the horizon) [pad]'s colour classes
    are activated round-robin, always keeping each step's active set
    non-interfering.  Default cooldown 0.

    [pool] fans the per-step decision computations out on the domain pool
    (decide-parallel / apply-sequential): decisions are functions of
    start-of-step heights only, and applications replay in the sequential
    order, so stats, events and live telemetry are bit-identical for
    every pool size.  [cost_at] is read sequentially, once per active
    edge and step, before the fan-out.

    [obs] turns on observability: phase spans ([engine/decide],
    [engine/apply]), end-of-run counters and gauges ([engine.*]) and a
    per-step max-height histogram.  When the sink carries an
    {!Adhoc_obs.Event.log}, every packet-level action is recorded into it
    ([Inject] per attempt, [Send] + [Deliver] per successful
    transmission, [Collide] per collided attempt) — the flight-recorder
    stream behind [adhoc_sim analyze], {!Adhoc_obs.Invariants} and the
    per-step series of an {!Adhoc_obs.Live} recorder attached to the
    log, and the per-packet journeys {!Journey} rebuilds.  With [None]
    (the default) every instrumentation site reduces to a single
    [match], keeping the hot path allocation-free and the stats
    bit-identical.  The step keeps its decisions as flat per-edge
    arrays: with no sink and no pool, a step allocates nothing beyond
    the buffers' own row growth. *)

val run_with_mac :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?collisions:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  mac:Adhoc_mac.Mac.t ->
  Workload.t ->
  stats
(** The workload's activations are ignored: every edge is a candidate each
    step, the MAC arbitrates.  With [collisions], granted attempts that
    interfere with other granted attempts fail.  [obs], [pool] and
    [on_step] behave as in {!run_mac_given}; a sink additionally
    wraps the MAC with {!Adhoc_mac.Mac.instrument}, so arbitration gets
    its own [mac/<name>] span and request / grant counters. *)
