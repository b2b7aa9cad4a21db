(** The FIFO packet mirror of a run's buffers, rebuilt from its event log.

    The engines move packets FIFO per (node, key) buffer cell, so feeding
    a log through identity queues, one event at a time, reconstructs each
    packet's journey.  {!Adhoc_routing.Journey} (offline, per packet) and
    {!Live} (online, per window) both fold the log through one mirror, so
    they count a run the same way.  The tests hold it to an independent
    mirror fed online ([test/reference_tracking.ml]).

    The mirror needs no absorption rule, because the log says what was
    absorbed (see {!Event}): an admitted [Inject] followed by its
    [Deliver] with [self = true] was absorbed where it was injected, and
    a [Send] with [outcome = Delivered] absorbed the packet it moved.  So
    it reads an [Engine.Destination] run and an [Engine.Group] run alike.
    An admitted injection waits in a one-slot pending cell until the next
    event, or the end of the stream, shows which it was. *)

type packet = {
  src : int;
  dst : int;  (** the key it is buffered under *)
  injected_at : int;
  mutable arrived : int;  (** step it reached the node that holds it *)
  mutable waited : int;
      (** steps it sat at the node its latest send left: that hop's
          head-of-line wait *)
  mutable delivered_at : int;  (** -1 while in flight *)
  mutable hops : int;
  mutable energy : float;  (** cost of its successful sends *)
}

val delivered : packet -> bool

val latency : packet -> int
(** Steps from injection to delivery.
    @raise Invalid_argument if not yet delivered. *)

type counters = {
  injected : int;  (** admitted, self-deliveries included *)
  dropped : int;
  delivered : int;  (** self-deliveries included *)
  self_deliveries : int;  (** absorbed where they were injected *)
  sends : int;  (** successful transmissions *)
  collisions : int;
  epochs : int;  (** [Epoch_change] events *)
  height_adverts : int;  (** [Height_advert] events *)
  energy : float;
      (** cost of every attempt, collided included, summed in event
          order: an engine's [total_cost] bit for bit *)
  buffered : int;
  anomalies : int;
      (** events no engine writes: a send from an empty cell, or a
          [Moved] send into its own key (no rule stops a packet short of
          its key's node, and group keys are no node's) — [0] for any log
          an engine wrote *)
}

type t

val create : unit -> t

val settle : t -> Event.t -> packet option
(** [settle t e] resolves the pending injection, if any, against the
    event [e] that follows it: [e] is its [Deliver] with [self = true]
    (same step and key), which counts a self-delivery, or the injection
    is committed to its queue and returned.  A fold that keys state by
    step calls this before its step-change bookkeeping, so that it sees
    the injection counted. *)

val feed : t -> Event.t -> packet option
(** Apply one event, settling first (a no-op after {!settle}): an
    admitted [Inject] fills the pending cell, and a [Send] moves or
    delivers the packet at the head of its cell, which is returned.  A
    send from an empty cell counts an anomaly and returns [None]. *)

val flush : t -> packet option
(** End of stream: commit the pending injection, if any, and return it. *)

val counters : t -> counters
(** The counters so far (an immutable snapshot). *)
