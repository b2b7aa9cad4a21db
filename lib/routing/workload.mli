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
    competitive ratios measured against {!opt_stats} are conservative.
    The schedules are kept ({!schedule}) so that [Certificate.check] can
    verify that claim without trusting the generator.

    Cost of certification: one Dijkstra per distinct (source, destination)
    pair, stopped once the destination is settled, of which only the path
    is kept; then per attempted hop O(|I(e)|) to stamp the hop's edge and
    its conflict row (interference-free workloads; O(1) otherwise) and,
    per slot tried, one array read per edge already reserved in that slot.  Hop [i] of a
    [len]-hop packet must land by [t0 + slack + i + 1], since every later
    hop needs its own later slot: a search that misses that deadline stops
    there, and the packet is rejected exactly when a search over its whole
    window would fail, with the same slots otherwise. *)

type opt_stats = {
  deliveries : int;  (** packets with certified schedules = OPT throughput *)
  total_cost : float;
  avg_cost : float;  (** C̄: [total_cost / deliveries] *)
  avg_hops : float;  (** L̄ *)
  max_buffer : int;  (** B: max per-(node, destination) occupancy of the certified schedules *)
  delta : int;  (** max number of activated edges sharing a node in one step *)
}

type schedule = {
  slack : int;  (** the [config.slack] the schedule was certified under *)
  interference_free : bool;  (** the [config.interference_free] likewise *)
  src : int array;  (** per certified packet, in the order they were accepted *)
  dst : int array;
  t0 : int array;  (** the packet's injection step *)
  first_hop : int array;
      (** packet [p]'s hops are [first_hop.(p)] to [first_hop.(p + 1) - 1];
          one entry per packet plus a final one, the hop count *)
  hop_edge : int array;  (** per hop, in path order: the edge it crosses *)
  hop_slot : int array;  (** the step in which it crosses it *)
}
(** The certificate behind {!opt_stats}: every certified packet with the
    (edge, slot) hops of its schedule, in flat arrays sized to their final
    length.  [Certificate.check] verifies it from outside, against the
    graph, the cost and (interference-free workloads) the interference
    model. *)

type t = {
  horizon : int;
  injections : (int * int) list array;  (** per step: (src, dest), at end of step *)
  activations : int list array;
      (** per step: active edge ids (scenario 1), ascending — exactly the
          edges the schedule reserves in that step.  They are distinct by
          construction (no slot is reserved for an edge twice), so no dedup
          runs. *)
  opt : opt_stats;
  schedule : schedule;
}

val no_schedule : schedule
(** The empty schedule of a workload that certifies nothing, such as a
    hand-built one. *)

type config = {
  horizon : int;
  attempts : int;  (** packets the adversary tries to certify *)
  slack : int;  (** extra steps a schedule may stretch beyond its hop count *)
  interference_free : bool;
      (** enforce that each step's reserved edges are pairwise
          non-interfering (Scenario 1 semantics); requires [conflict] *)
}

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
(** Random sources, all sent to [sink] — the many-to-one
    (data-collection) pattern.  [sources] restricts the origin
    nodes (default: all nodes). *)
