(** Classical adversarial-queueing disciplines — the related-work thread
    the paper builds on (Borodin et al.; Andrews et al., Section 1.2).

    In the adversarial queueing model the adversary reveals a *path* for
    every injected packet; the algorithm only chooses, per edge and step,
    which waiting packet crosses.  Experiment E15 compares the disciplines
    on fixed shortest-path flows ({!path_flows}). *)

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

val path_flows :
  horizon:int ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  num_flows:int ->
  rate:float ->
  (int * int * int list) list array
(** E15's traffic: [num_flows] fixed shortest paths under [cost], each
    injecting a packet independently with probability [rate] per step.
    Per step of the [horizon], the (src, dst, edge path) of each injected
    packet.  No schedule backs it: it can (deliberately) exceed network
    capacity. *)

val run :
  ?cooldown:int ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  discipline ->
  (int * int * int list) list array ->
  stats
(** [run d paths] injects [paths.(t)] at the end of step [t], for as many
    steps as [paths] has, and runs [cooldown] more.  Packets follow their
    paths; per step every edge moves at most one packet per direction,
    chosen by the discipline — every edge is usable every step, the
    classical adversarial-queueing assumption. *)
