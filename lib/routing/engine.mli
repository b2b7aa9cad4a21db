(** Discrete-time routing simulation driving the (T, γ)-balancing algorithm
    over a workload, in the paper's two layerings:

    - {!run_mac_given} — Scenario 1 (Theorem 3.1): each step the adversary
      hands the router a set of non-interfering active edges (the
      workload's activations, optionally padded with conflict-graph colour
      classes) and the router balances over them.
    - {!run_with_mac} — Scenarios 2 and 3 (Theorems 3.3 / 3.8): the router
      sees the whole topology, a {!Adhoc_mac.Mac.t} grants transmission
      attempts, and granted attempts that still interfere all fail (both
      packets stay, the transmission energy is spent). *)

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

val application_order : Balancing.decision -> Balancing.decision -> int
(** Order in which simultaneous decisions are applied when they contend for
    a buffer: deliveries first, then descending gain.  Exposed for engine
    variants (see {!Tracked_engine}). *)

val record_stats : Adhoc_obs.sink option -> stats -> unit
(** End-of-run flush of a stats record into the sink's metrics registry:
    totals as [engine.*] counters (accumulating across runs sharing a
    sink), extrema and leftovers as gauges.  No-op on [None].  Exposed for
    engine variants. *)

(** The per-run observability bundle the engine variants share
    ({!Dynamic_engine}, {!Quantized_engine}): [engine/*] span scopes, the
    per-step max-height histogram, stride-gated trace samples whose
    counters are deltas since the previous sample, and the end-of-run
    metrics flush.  All calls are no-ops when the sink is [None]. *)
module Run_obs : sig
  type t

  val create : Adhoc_obs.sink option -> n:int -> t
  (** Registers the [engine.step_max_height] histogram when a sink is
      present.  [n] is the node count (for the trace's mean height). *)

  val enter : t -> string -> unit
  val leave : t -> unit

  val sample :
    t ->
    buffers:Buffers.t ->
    step:int ->
    injected:int ->
    delivered:int ->
    dropped:int ->
    sends:int ->
    failed_sends:int ->
    active_edges:int ->
    unit
  (** Call once at the end of every step with the cumulative counters;
      records the height histogram observation and, when the sink carries
      a trace wanting [step], one sample. *)

  val finish : t -> stats -> unit
end

val throughput_ratio : stats -> Workload.opt_stats -> float
(** [delivered / opt.deliveries].  [0.] when OPT delivered nothing: a run
    with no certified deliveries to compete against earns nothing, rather
    than a spuriously perfect ratio. *)

val cost_ratio : stats -> Workload.opt_stats -> float
(** Average cost per delivery relative to OPT's.  [Float.nan] when the run
    delivered nothing (or OPT's average cost is not positive): the ratio is
    undefined, and reporting [1.] would make a run that delivers nothing
    look perfect.  Bench tables render it as [n/a]. *)

(** Per-edge cached balancing decisions, invalidated incrementally.

    A decision over an edge depends only on the buffer heights at its two
    endpoints and the (static) edge cost, and the argmax is independent of
    buffer-iteration order, so cached decisions are exact.  A watcher on
    the buffers collects changed nodes; {!Cache.flush} invalidates only the
    edges incident to them.  Engine variants share this structure. *)
module Cache : sig
  type t

  val create :
    graph:Adhoc_graph.Graph.t ->
    buffers:Buffers.t ->
    params:Balancing.params ->
    edge_cost:float array ->
    t
  (** Registers a watcher on [buffers] (replacing any previous one). *)

  val flush : t -> unit
  (** Invalidates edges incident to nodes whose heights changed since the
      last flush.  Call at the start of each step, before reading. *)

  val prepare : ?pool:Adhoc_util.Pool.t -> t -> int array -> count:int -> unit
  (** Refreshes every invalidated edge among the first [count] entries of
      the active-edge array on the domain pool, so subsequent lookups only
      read cache hits.  Each task reads start-of-step heights and writes
      only its own edge's cells (par-safe), and the refreshed decisions
      are bit-identical to the lazy sequential path for any pool size.
      No-op when [pool] is [None]. *)

  val fwd : t -> int -> Balancing.decision option
  (** Best send [u -> v] over the edge, on the heights as of the last
      flush. *)

  val bwd : t -> int -> Balancing.decision option

  val either : t -> int -> Balancing.decision option
  (** The better direction, ties preferring [u -> v] — the cached
      equivalent of {!Balancing.best_either}. *)
end

(** Precomputed colour-class padding for Scenario-1 engines: colour classes
    and conflict adjacency are built once per run.  Per step, every base
    edge stamps itself and its conflict row into a reusable per-edge int
    array, and a class edge is kept exactly when its stamp is stale.  A
    step therefore costs O(|base|·I + |class|), with I the interference
    number, and allocates nothing.  The stamp test is exact because
    {!Adhoc_interference.Conflict} rows are symmetric: a base edge lists a
    class edge in its row exactly when the class edge lists the base
    edge. *)
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

val run_mac_given :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?on_send:
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) ->
  ?on_inject:(step:int -> src:int -> dst:int -> bool -> unit) ->
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
    order, so stats, events, traces and live telemetry are bit-identical
    for every pool size.  Static-cost runs only; the [cost_at] path stays
    sequential.

    [obs] turns on observability: phase spans ([engine/decide],
    [engine/apply]), end-of-run counters and gauges ([engine.*]), a
    per-step max-height histogram, and — when the sink carries a
    {!Adhoc_obs.Trace.t} — one trace sample per stride step.  When the
    sink carries an {!Adhoc_obs.Event.log}, every packet-level action is
    recorded into it ([Inject] per attempt, [Send] + [Deliver] per
    successful transmission, [Collide] per collided attempt) — the
    flight-recorder stream behind [adhoc_sim analyze] and
    {!Adhoc_obs.Invariants}.  With [None] (the default) every
    instrumentation site reduces to a single [match], keeping the hot
    path allocation-free and the stats bit-identical.

    [on_send] fires after each {e successful} (uncollided, non-empty)
    transmission with the applied decision and whether it delivered;
    [on_inject] fires per injection attempt with [true] when admitted.
    Together they let variants mirror the run's packet movements without
    duplicating the loop — {!Tracked_engine} is built on them. *)

val run_with_mac :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?on_send:
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) ->
  ?on_inject:(step:int -> src:int -> dst:int -> bool -> unit) ->
  ?collisions:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  mac:Adhoc_mac.Mac.t ->
  Workload.t ->
  stats
(** The workload's activations are ignored: every edge is a candidate each
    step, the MAC arbitrates.  With [collisions], granted attempts that
    interfere with other granted attempts fail.  [obs], [pool], [on_send]
    and [on_inject] behave as in {!run_mac_given}; a sink additionally
    wraps the MAC with {!Adhoc_mac.Mac.instrument}, so arbitration gets
    its own [mac/<name>] span and request / grant counters. *)
