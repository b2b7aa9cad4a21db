(** Packet-journey event log: a compact, typed flight recorder.

    Aggregate metrics and step counters cannot express the paper's
    per-packet guarantees — Theorem 3.1 bounds individual deliveries,
    not step averages.  This log records every packet-level action an
    engine takes, in order, as one of six typed events.  The
    in-memory representation is a pair of growable flat arrays (7 ints +
    1 float per event), so recording costs a handful of stores and no
    per-event allocation; the variant view is materialized only on read.

    Event semantics (what a well-formed engine emits).  A packet is keyed
    by what absorbs it, under the run's absorption rule: a destination
    node (an [Engine.Destination] run), or [n + g] for group [g] on [n]
    nodes, absorbed at any member (an [Engine.Group] run).  [dst] of an
    [Inject] and [dest] of a [Send] are that key.
    - [Inject]: one per injection attempt; [admitted = false] means the
      admission cap dropped the packet.  A packet admitted at a node that
      absorbs it is absorbed at once and is followed by a [Deliver] with
      [self = true]; any other admitted packet is buffered at [src].
    - [Send]: one per {e successful} transmission; [outcome] says whether
      the packet was absorbed at [dst] ([Delivered], when [dst] absorbs
      [dest]) or enqueued there ([Moved]).  A delivering send is
      followed by a [Deliver] with [self = false].
    - [Collide]: a transmission attempt that spent [cost] energy but
      moved nothing (MAC scenarios); buffers are unchanged.  Like a
      [Send], it requires a packet for [dest] buffered at [src]: an
      engine attempts only a send it could make.
    - [Deliver]: one per delivered packet, immediately after the event
      that caused it.
    - [Epoch_change]: the topology switched to epoch [epoch] (a
      {!Adhoc_routing.Engine.phase} with [epoch = Some _] opens).
    - [Height_advert]: [node] broadcast its buffer heights (the
      {!Adhoc_routing.Engine.Advertised} height view).

    The JSONL sink writes schema [adhoc-events/1]: a header line
    [{"schema":"adhoc-events/1"}] followed by one event object per line.
    Floats are written with enough digits to round-trip exactly, so
    offline analytics ({!Adhoc_routing.Journey}) reproduce in-memory
    results bit-for-bit. *)

type outcome = Moved | Delivered

type t =
  | Inject of { step : int; src : int; dst : int; admitted : bool }
  | Send of {
      step : int;
      edge : int;
      src : int;
      dst : int;
      dest : int;  (** key of the packet that moved *)
      cost : float;
      outcome : outcome;
    }
  | Collide of { step : int; edge : int; src : int; dst : int; dest : int; cost : float }
  | Deliver of { step : int; dst : int; self : bool }
  | Epoch_change of { step : int; epoch : int }
  | Height_advert of { step : int; node : int }

val step : t -> int
(** The step any event occurred at. *)

type log

val create : unit -> log
(** An empty log with room for 1024 events; the backing arrays grow by
    doubling. *)

val length : log -> int

val get : log -> int -> t
(** [get log i] decodes the [i]-th recorded event (0-based).  Raises
    [Invalid_argument] out of bounds. *)

val record : log -> t -> unit
(** Append a decoded event (tests, corrupt-log construction).  The
    engines use the specialized emitters below, which skip the variant.
    Unlike the emitters, [record] performs {e no} step check — it is the
    sanctioned way to build deliberately malformed logs for the
    {!Invariants} checker's own tests. *)

(** {2 Allocation-free emitters}

    One per constructor; these write the flat fields directly.  When
    observers are attached (see {!add_observer}) the event is decoded
    once and handed to each — the cost of online consumption is only
    paid when someone is listening.

    {b Monotonicity contract}: the engines emit events in simulation
    order, so consecutive steps never decrease.  The emitters enforce
    this — a step below {!last_step} raises [Invalid_argument] with the
    offending pair — which is what lets online consumers
    ({!Adhoc_obs.Live}, {!Invariants}) fold over the stream with
    step-keyed state and stay bit-identical to an offline replay of the
    same log. *)

val inject : log -> step:int -> src:int -> dst:int -> admitted:bool -> unit
val send :
  log -> step:int -> edge:int -> src:int -> dst:int -> dest:int -> cost:float ->
  outcome:outcome -> unit
val collide :
  log -> step:int -> edge:int -> src:int -> dst:int -> dest:int -> cost:float -> unit
val deliver : log -> step:int -> dst:int -> self:bool -> unit
val epoch_change : log -> step:int -> epoch:int -> unit
val height_advert : log -> step:int -> node:int -> unit

val to_array : log -> t array

val last_step : log -> int
(** The largest step recorded so far ([min_int] on an empty log).  For
    emitter-built logs this is simply the current simulation step — the
    monotone high-water mark the emitters enforce. *)

val add_observer : log -> (int -> t -> unit) -> unit
(** [add_observer log f] makes every subsequent record call [f i event]
    after the event is stored, keeping the observers already attached;
    observers run in registration order.  {!Adhoc_obs.Invariants.attach}
    and {!Adhoc_obs.Live.attach} both use this, so online checking and
    live analytics compose on one log. *)

val save_jsonl : log -> string -> unit
(** [save_jsonl log file] writes the schema header line, then one JSON
    object per event, to [file]. *)

val load_jsonl : string -> (t array, string) result
(** Parse a file written by {!save_jsonl}, or the same objects re-written
    by another JSON writer.  Each line is read by the shared strict
    reader, {!Adhoc_util.Json.of_string}: any whitespace between tokens
    and any member order are accepted, a repeated member name is
    rejected, and string escapes are checked but not decoded (every
    string of the format is a plain ASCII word).  Checks the schema
    header, that every non-empty line is exactly one flat JSON object
    with the event's fields (integer fields as integer literals), and
    the emitters' step contract (no negative step, no step below its
    predecessor's); [Error msg] reads [FILE:LINE: problem] for the first
    problem.  Costs round-trip exactly. *)
