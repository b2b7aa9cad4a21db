(** Packet identities for per-packet analytics.

    The balancing algorithm itself never inspects identity (buffer heights
    suffice), but end-to-end evaluation wants per-packet latency, hop count
    and energy; {!Journey} rebuilds these records from a run's event
    log. *)

type t = {
  id : int;
  src : int;
  dst : int;
  injected_at : int;
  mutable delivered_at : int;  (** -1 while in flight *)
  mutable hops : int;
  mutable energy : float;  (** cost spent on this packet's transmissions *)
}

val make : id:int -> src:int -> dst:int -> now:int -> t

val delivered : t -> bool

val latency : t -> int
(** Steps from injection to delivery.
    @raise Invalid_argument if not yet delivered. *)
