(** Live streaming telemetry: deterministic windowed analytics over the
    packet-journey event stream.

    A {!t} folds {!Event.t}s — online via {!attach}, or offline over a
    replayed array via {!feed_array} — into tumbling windows keyed by
    {e simulation step}, never wall-clock.  Every derived figure
    (counters, {!Sketch} quantile estimates, {!Topk} heavy hitters,
    {!Invariants} health) is a pure function of the event sequence and
    the window size, so the emitted snapshot stream
    is bit-identical across [--jobs] and between an online run and an
    offline replay of the very same log.

    The packet counts come from one {!Mirror}, the fold that
    [Routing.Journey] also reads: a window's counts are the mirror's
    counters at its close less those at its open, and the cumulative
    record carries the counters themselves.  The mirror reads
    absorption from the log, so the counts hold for an [Engine.Group]
    run too.  The health fold does not: it checks the destination rule
    ({!Invariants.create}'s default), so a [Group] run, whose members
    absorb packets keyed [n + g], reads unhealthy.  No caller attaches a
    recorder to a [Group] run.

    Windows are emitted even when a window's worth of steps saw no
    events (gap windows carry zero counters and the current gauges), so
    window [w] always covers steps [w*window .. (w+1)*window - 1]
    starting from the first observed event's window.

    The JSONL sink writes schema [adhoc-live/1]: a header line
    [{"schema":"adhoc-live/1","window":W,"top_k":K}], one object per
    closed window, and exactly one final cumulative object
    ([{"final":true, ...}]).  Non-finite floats (empty sketches) are
    written as JSON [null].  A Prometheus-style text dump of the final
    cumulative state is also available; it carries no timestamps. *)

type window = {
  w : int;  (** window index: covers steps [w*size .. w*size+size-1] *)
  step_lo : int;
  step_hi : int;
  injected : int;  (** admitted injections in this window *)
  dropped : int;
  delivered : int;  (** deliveries, including self-deliveries *)
  self_deliveries : int;
  sends : int;
  collisions : int;
  control : int;  (** epoch changes + height adverts *)
  buffered : int;  (** gauge: packets buffered at window close *)
  violations : int;  (** cumulative invariant violations at window close *)
  latency_p50 : float;  (** cumulative sketch estimates; [nan] when empty *)
  latency_p95 : float;
  hops_p50 : float;
  hops_p95 : float;
  occupancy_p50 : float;
  occupancy_p95 : float;
  top_edges : (int * int * int) list;  (** (edge, count, err), busiest first *)
}

type cumulative = {
  steps : int;  (** last observed step + 1, or 0 with no events *)
  events : int;
  windows : int;
  totals : Mirror.counters;  (** the mirror's counters at the end of the stream *)
  c_violations : int;
  healthy : bool;  (** no invariant violation and no mirror anomaly *)
  latency_mean : float;  (** exact mean of delivery latencies; [nan] when empty *)
  c_latency_p50 : float;
  latency_p90 : float;
  c_latency_p95 : float;
  latency_p99 : float;
  hops_mean : float;
  c_hops_p50 : float;
  c_hops_p95 : float;
  occupancy_mean : float;
  c_occupancy_p50 : float;
  c_occupancy_p95 : float;
  occupancy_max : float;
  c_top_edges : (int * int * int) list;
  top_nodes : (int * int * int) list;
}

type t

val create : window:int -> unit -> t
(** [create ~window ()] builds a recorder with tumbling windows of
    [window] simulation steps (raises [Invalid_argument] if [< 1]) and
    {!top_k} heavy-hitter slots.  The sketch buckets are powers of two up
    to 16384 steps (latency), unit-width up to 32 (hops), and powers of
    two up to 65536 packets (occupancy). *)

val feed : t -> Event.t -> unit
(** Fold one event.  Raises [Invalid_argument] on a step below the
    largest step already fed (the emitters' monotonicity contract is
    what makes step-keyed windowing sound), on a negative step, or after
    {!finish}. *)

val feed_array : t -> Event.t array -> unit
(** Offline replay: fold a whole recorded log in order. *)

val attach : t -> Event.log -> unit
(** Fold every subsequently recorded event online (adds an observer,
    keeping any already attached — composes with
    {!Invariants.attach}). *)

val finish : t -> cumulative
(** Close all windows through the last observed step, take the final
    occupancy sample, and return the cumulative record.  Idempotent;
    further {!feed}s are rejected. *)

val windows : t -> window list
(** Closed windows in order.  Complete only after {!finish}. *)

val window_size : t -> int

val top_k : int
(** Heavy-hitter slots per table: 8. *)

val save_jsonl : t -> string -> unit
(** [save_jsonl t file] writes the stream to [file]: the header, one line
    per window, one final cumulative line.  Calls {!finish}.  Floats use
    [%.17g] so the stream round-trips and the online/replay byte-identity
    holds. *)

val save_prometheus : t -> string -> unit
(** [save_prometheus t file] writes the Prometheus text exposition of the
    final cumulative state (counters, gauges, quantile-labelled summaries,
    labelled top-k gauges) to [file].  Calls {!finish}.  Deterministic: no
    timestamps. *)
