(** Classical adversarial-queueing disciplines — the related-work thread
    the paper builds on (Borodin et al.; Andrews et al., Section 1.2).

    In the adversarial queueing model the adversary reveals a *path* for
    every injected packet; the algorithm only chooses, per edge and step,
    which waiting packet crosses.  Our certified workloads carry exactly
    those paths, so the classical disciplines run on the same inputs as the
    (T, γ)-balancing algorithm — experiment E15 compares them. *)

type discipline =
  | Fifo  (** first-in first-out by arrival time at the queue *)
  | Lifo  (** last-in first-out *)
  | Furthest_to_go  (** most remaining hops first (universally stable) *)
  | Nearest_to_go  (** fewest remaining hops first (unstable in general) *)
  | Longest_in_system  (** earliest injection time first (universally stable) *)

val discipline_name : discipline -> string

type stats = {
  steps : int;
  injected : int;
  delivered : int;
  total_cost : float;  (** cost of all transmissions under the given model *)
  max_queue : int;  (** largest per-(node, edge) queue observed *)
  avg_latency : float;  (** mean injection→delivery time ([0.] if none) *)
}

val run :
  ?cooldown:int ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  discipline ->
  Workload.t ->
  stats
(** Packets follow their certified paths; per step every edge moves at
    most one packet per direction, chosen by the discipline — every edge
    is usable every step, the classical adversarial-queueing assumption. *)
