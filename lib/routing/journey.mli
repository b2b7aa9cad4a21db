(** Offline packet-journey reconstruction from an {!Adhoc_obs.Event} log.

    The event stream records every admission and every transmission in the
    order the engine applied them, and the engines move packets FIFO per
    (node, destination) buffer cell.  Replaying the log through identity
    queues therefore reconstructs each packet's journey exactly.  The
    tests hold {!analyze} to an independent FIFO mirror fed online by an
    event observer ([test/reference_tracking.ml]): on the same run the
    latency / hops / energy statistics agree bit-for-bit, from memory and
    after the JSONL round trip.  This is the one per-packet view of a
    run: [adhoc_sim analyze] computes it from a JSONL file long after the
    run, with the live run paying only the cost of appending events. *)

type totals = {
  steps : int;  (** last event's step + 1 (observed steps; quiet cooldown
                    tail steps leave no events and are not counted) *)
  injected : int;  (** admitted, including self-injections *)
  dropped : int;
  delivered : int;  (** self-deliveries included *)
  self_deliveries : int;
  sends : int;  (** successful transmissions *)
  collisions : int;
  energy : float;
      (** cost of all attempts, collided included, summed in event order —
          equals the engine's [total_cost] bit-for-bit *)
  epochs : int;  (** [Epoch_change] events seen *)
  height_adverts : int;  (** [Height_advert] events seen *)
}

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
  totals : totals;
  latency_mean : float;
  latency_median : float;
  latency_p95 : float;
  hops_mean : float;
  energy_per_delivered : float;
      (** mean energy charged to delivered packets (successful sends
          only: a collided attempt moves no packet) *)
  packets : Packet.t list;
      (** every admitted non-self packet, injection order *)
  edges : edge_use array;  (** ascending edge id *)
  timeline : (int * int * int) array;
      (** one [(step, cumulative deliveries, packets buffered)] snapshot
          per distinct step that produced events, ascending *)
  anomalies : int;
      (** events that could not be replayed (send from an empty queue, or
          a [Moved] outcome terminating at its destination) — [0] for any
          log an engine wrote; nonzero means the log is corrupt or
          truncated *)
}

val analyze : Adhoc_obs.Event.t array -> t
(** Replays the events in order.  Latency fields are [0.] when nothing
    was delivered.  Corrupt logs do not raise: unplayable events are
    counted in [anomalies] and skipped. *)
