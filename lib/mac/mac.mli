(** Medium-access control protocols.

    A MAC decides, each step, which of the edges the routing layer would
    like to use may attempt a transmission.  Collisions between granted
    edges that still interfere (possible under randomized MACs) are
    resolved by the engine: both transmissions fail.

    The MACs the simulator runs:
    - {!random_interference}: Scenario 2 (Section 3.3) — each edge [e]
      independently becomes active with probability [1/(2·Iₑ)], the paper's
      symmetry-breaking rule (Lemma 3.2 bounds the collision probability).
    - {!Honeycomb} (own module): Scenario 3 (Section 3.4) — fixed
      transmission strength, hexagon contestants.
    - {!csma}: carrier sense, the protocols the paper names as a given
      MAC for Scenario 1; experiment E8 runs it next to the random MAC on
      the same workload.

    Scenario 1's runs (Section 3.2) take their interference-free edge
    sets from the certified workload's schedule (the step kernel's
    [Given] activation), not from a MAC. *)

type t = {
  name : string;
  select :
    step:int ->
    edge:int array ->
    sender:int array ->
    benefit:float array ->
    count:int ->
    granted:int array ->
    int;
}
(** [select ~step ~edge ~sender ~benefit ~count ~granted] arbitrates one
    step's requests, given as parallel arrays: request [i < count] asks to
    transmit over topology edge [edge.(i)] from node [sender.(i)], and
    [benefit.(i)] is the balancing gain of that send.  At most one request
    names an edge.  The engine lists its requests in ascending edge id.

    The MAC writes the indices of the requests it grants into
    [granted.(0 ..)], in its own grant order, and returns how many
    (at most [count]; [granted] must hold [count] entries).  The grant
    order is part of the contract: a randomized MAC draws its coins in a
    fixed order over the requests, and the engine applies the grants in a
    stable order that starts from this one.  Entries of the arrays at or
    past [count] are ignored, so a caller can keep them preallocated. *)

val random_interference : rng:Adhoc_util.Prng.t -> Adhoc_interference.Conflict.t -> t
(** Activation probability [1/(2·Iₑ)] per edge per step, with [Iₑ] the
    paper's neighbourhood bound
    ({!Adhoc_interference.Conflict.neighborhood_bounds}) — what makes
    Lemma 3.2's 1/2 collision bound hold.  Each request in turn draws one
    {!Adhoc_util.Prng.bernoulli} coin against its edge's precomputed
    threshold (the same coin as [Prng.uniform rng < 1/(2·Iₑ)]); grants
    are in request order, and a step allocates nothing. *)

val csma : rng:Adhoc_util.Prng.t -> Adhoc_interference.Conflict.t -> t
(** Carrier-sense abstraction (CSMA/CA, MACA, 802.11 — the protocols the
    paper names for Scenario 1): contenders back off in a random order and
    transmit iff no already-transmitting edge interferes, yielding a
    maximal non-interfering subset chosen uniformly by arrival order
    rather than by benefit.  Grant order is the shuffled arrival order. *)

val instrument : Adhoc_obs.sink -> t -> t
(** [instrument obs mac] wraps [mac] so every [select] is timed under span
    ["mac/<name>"] and the per-step request / grant counts accumulate in
    [obs]'s metrics as counters ["mac.<name>.requests"] and
    ["mac.<name>.granted"].  The engines apply this automatically when
    given a sink; the arbitration itself is unchanged. *)
