(** Certified adversarial workloads.

    The paper's adversary (Section 3.1) may inject arbitrarily many packets
    and change the network arbitrarily, but OPT's throughput is defined over
    packets for which conflict-free schedules exist.  Computing OPT for an
    arbitrary sequence is intractable, so the generator works backwards: it
    first *constructs* an explicit set of schedules — shortest paths whose
    edge uses are reserved in non-conflicting time slots — and then emits
    exactly those injections (and, for the MAC-given scenario, exactly the
    activations the schedules use).  By construction a best possible
    algorithm delivers every injected packet at the recorded cost, so
    competitive ratios measured against {!opt_stats} are conservative. *)

type opt_stats = {
  deliveries : int;  (** packets with certified schedules = OPT throughput *)
  total_cost : float;
  avg_cost : float;  (** C̄: [total_cost / deliveries] *)
  avg_hops : float;  (** L̄ *)
  max_buffer : int;  (** B: max per-(node, destination) occupancy of the certified schedules *)
  delta : int;  (** max number of activated edges sharing a node in one step *)
}

type t = {
  horizon : int;
  injections : (int * int) list array;  (** per step: (src, dest), at end of step *)
  paths : (int * int * int list) list array;
      (** per step: (src, dest, certified edge path) — the schedule routes,
          for path-based routers and queueing disciplines *)
  activations : int list array;  (** per step: active edge ids (scenario 1) *)
  opt : opt_stats;
}

type config = {
  horizon : int;
  attempts : int;  (** packets the adversary tries to certify *)
  slack : int;  (** extra steps a schedule may stretch beyond its hop count *)
  interference_free : bool;
      (** enforce that each step's reserved edges are pairwise
          non-interfering (Scenario 1 semantics); requires [conflict] *)
}

val generate :
  ?conflict:Adhoc_interference.Conflict.t ->
  config ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  t
(** Random source/destination pairs, shortest paths under [cost], greedy
    earliest-slot reservation.  Attempts whose schedule cannot be packed
    within their window are discarded (not injected), keeping the workload
    certified. *)

val flows :
  ?conflict:Adhoc_interference.Conflict.t ->
  ?max_hops:int ->
  config ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  num_flows:int ->
  t
(** Concentrated traffic: [num_flows] random source/destination pairs are
    drawn once and every attempt uses one of them.  Sustained flows are the
    regime of the paper's asymptotic guarantees — the balancing gradient
    only forms when buffers accumulate packets per destination.
    [max_hops] rejects pairs further apart than that many hops (up to 200
    redraws; the last draw is kept regardless), modelling an adversary that
    concentrates on short routes.  Each redraw runs a breadth-first search
    cut at depth [max_hops] over one reused buffer, so it visits one
    k-hop ball around the source and the check holds O(n) memory however
    many pairs are tried. *)

val single_destination :
  ?conflict:Adhoc_interference.Conflict.t ->
  ?sources:int array ->
  config ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  sink:int ->
  t
(** Same generator with all destinations forced to [sink] — the
    many-to-one (data-collection) pattern.  [sources] restricts the origin
    nodes (default: all nodes). *)

val bursty :
  ?conflict:Adhoc_interference.Conflict.t ->
  config ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  num_flows:int ->
  period:int ->
  burst_width:int ->
  t
(** Bursty adversary: flow traffic whose injection times fall only inside
    the first [burst_width] steps of each [period]-step window — the
    windowed injection pattern of adversarial queueing theory.  Still
    certified: every injected packet has a reserved schedule. *)

val path_flows :
  config ->
  rng:Adhoc_util.Prng.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  num_flows:int ->
  rate:float ->
  t
(** UNcertified path workload for the queueing-discipline experiments:
    [num_flows] fixed shortest paths, each injecting a packet independently
    with probability [rate] per step.  Unlike the certified generators this
    can (deliberately) exceed network capacity; [opt.deliveries] records the
    injection count, and competitive ratios against it are meaningless. *)
