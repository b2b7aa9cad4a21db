(** An outside check of a certified workload's OPT (paper Section 3.1: "for
    each of the successful packets a schedule can be specified").

    {!check} reads only the schedule a {!Workload.t} keeps, the graph, the
    cost and, for interference-free workloads, the guard-zone model and the
    points ([interference] is ignored for other workloads).  It shares no
    code with the certifier: interference is decided by
    {!Adhoc_interference.Model.interferes} on the points, not through the
    conflict graph, so it checks [Conflict.build]'s rows as well. *)

type summary = { packets : int; hops : int }

val check :
  interference:Adhoc_interference.Model.t * Adhoc_geom.Point.t array ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  Workload.t ->
  (summary, string) result
(** [Ok] with the schedule's packet and hop counts when:
    - the hop offsets never decrease and end at the number of hops;
    - each packet's hops walk from its source to its destination;
    - its slots strictly increase, lie in [[t0 + 1, t0 + len + slack]] and
      below the horizon;
    - no slot holds an edge twice, and in an interference-free schedule no
      two of a slot's edges interfere;
    - [injections] holds exactly the scheduled (src, dst) pairs at their
      injection steps, and [activations] exactly each slot's edges,
      ascending;
    - [opt] matches the schedule: deliveries, [total_cost] (bit for bit,
      summed in hop order), [avg_cost], [avg_hops], [max_buffer] (a
      departure leaves a buffer before an arrival enters it in the same
      step) and [delta].

    Otherwise [Error] with the first violation found. *)
