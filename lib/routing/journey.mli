(** Offline packet-journey reconstruction from an {!Adhoc_obs.Event} log.

    {!analyze} folds the log through one {!Adhoc_obs.Mirror}, the FIFO
    identity mirror that {!Adhoc_obs.Live} also reads, and adds a
    per-edge table, a timeline and exact per-packet statistics.  The
    tests hold it to an independent FIFO mirror fed online by an event
    observer ([test/reference_tracking.ml]): on the same run the
    latency / hops / energy statistics agree bit-for-bit, from memory
    and after the JSONL round trip.  This is the one per-packet view of
    a run: [adhoc_sim analyze] computes it from a JSONL file long after
    the run, with the live run paying only the cost of appending events.
    It reads absorption from the log, so it needs no absorption rule; the
    checks that do ("delivered where the rule absorbs nothing") are
    {!Adhoc_obs.Invariants}'. *)

type edge_use = {
  edge : int;
  u : int;
  v : int;  (** endpoints as observed from the first send over the edge *)
  sends : int;
  collisions : int;
  energy : float;  (** attempts over this edge, collided included *)
  wait_sum : float;
      (** total head-of-line wait: for each successful send, the steps the
          forwarded packet had been sitting at the sending node *)
}

val mean_wait : edge_use -> float
(** [wait_sum / sends]; [0.] for an edge with collisions only. *)

type t = {
  steps : int;
      (** last event's step + 1 (observed steps; quiet cooldown tail
          steps leave no events and are not counted) *)
  totals : Adhoc_obs.Mirror.counters;
      (** the mirror's counters at the end of the log; [anomalies] counts
          the events that could not be replayed, [0] for any log an
          engine wrote *)
  latency_mean : float;
  latency_median : float;
  latency_p95 : float;
  hops_mean : float;
  energy_per_delivered : float;
      (** mean energy charged to delivered packets (successful sends
          only: a collided attempt moves no packet) *)
  packets : Adhoc_obs.Mirror.packet list;
      (** every admitted packet that was buffered (not absorbed where it
          was injected), injection order *)
  edges : edge_use array;  (** ascending edge id *)
  timeline : (int * int * int) array;
      (** one [(step, cumulative deliveries, packets buffered)] snapshot
          per distinct step that produced events, ascending *)
}

val analyze : Adhoc_obs.Event.t array -> t
(** Replays the events in order.  Latency fields are [0.] when nothing
    was delivered.  Corrupt logs do not raise: unplayable events are
    counted in [totals.anomalies] and skipped. *)
