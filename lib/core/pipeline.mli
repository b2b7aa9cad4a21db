(** One-call stacks combining topology control, interference, MAC and
    routing — the paper's end-to-end results.

    [prepare] builds ΘALG's overlay 𝒩 and its interference structure once;
    the [run_*] functions then evaluate the (T, γ)-balancing algorithm on a
    certified adversarial workload under each of the paper's three
    scenarios. *)

type built = {
  points : Adhoc_geom.Point.t array;
  range : float;
  theta : float;
  delta : float;  (** interference guard zone Δ *)
  gstar : Adhoc_graph.Graph.t;  (** the transmission graph *)
  alg : Adhoc_topo.Theta_alg.t;
  overlay : Adhoc_graph.Graph.t;  (** 𝒩 *)
  conflict : Adhoc_interference.Conflict.t;  (** interference structure of 𝒩 *)
  interference_number : int;  (** I *)
}

val prepare :
  ?delta:float ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  theta:float ->
  range:float ->
  Adhoc_geom.Point.t array ->
  built
(** Builds G*, 𝒩 and the conflict structure.  [delta] defaults to [0.5].
    [obs] attributes the build phases to spans ([prepare/gstar],
    [prepare/theta-alg], [prepare/conflict]) and records topology gauges
    ([topo.nodes], [topo.overlay_edges], [topo.interference_number]).
    [pool] parallelizes the three build phases' per-node/per-edge loops;
    the built structures are bit-identical for any pool size. *)

type result = {
  opt : Adhoc_routing.Workload.opt_stats;
  stats : Adhoc_routing.Engine.stats;
  throughput_ratio : float;  (** delivered / OPT deliveries; 0. when OPT is empty *)
  cost_ratio : float;  (** avg cost per delivery / OPT's; nan when nothing was delivered *)
  params : Adhoc_routing.Balancing.params;
  workload : Adhoc_routing.Workload.t;
      (** the certified workload, schedule included: {!Adhoc_routing.Certificate.check}
          verifies it against [overlay], [cost] and [conflict]'s model *)
  cost : Adhoc_graph.Cost.t;  (** the edge cost it was certified and routed under *)
}

val run_scenario1 :
  ?epsilon:float ->
  ?attempts:int ->
  ?horizon:int ->
  ?cooldown:int ->
  ?flows:int ->
  ?max_flow_hops:int ->
  ?kappa:float ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  rng:Adhoc_util.Prng.t ->
  built ->
  result
(** Theorem 3.1: MAC given.  The certified workload's activations (mutually
    non-interfering each step, padded with colour classes) drive the
    balancing algorithm with the Theorem-3.1 parameter derivation.
    Defaults: ε = 0.5, horizon 2000, attempts ≈ horizon, cooldown =
    horizon.  [obs] times certification ([workload/certify]) and the run
    ([run/scenario1]); both [obs] and [pool] are passed through to the
    engine — see {!Adhoc_routing.Engine.run_mac_given} (decisions fan out
    on the pool, bit-identical for every pool size). *)

val run_scenario2 :
  ?epsilon:float ->
  ?attempts:int ->
  ?horizon:int ->
  ?cooldown:int ->
  ?flows:int ->
  ?max_flow_hops:int ->
  ?kappa:float ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  rng:Adhoc_util.Prng.t ->
  built ->
  result
(** Theorem 3.3 / Corollaries 3.4–3.5: no MAC given.  Random
    [1/(2Iₑ)] symmetry breaking with collisions; OPT is certified without
    interference constraints (it may use interfering edges
    simultaneously).  [obs] as in {!run_scenario1} (run span
    [run/scenario2]; the MAC additionally reports under [mac/random-mac]). *)

val run_honeycomb :
  ?epsilon:float ->
  ?attempts:int ->
  ?horizon:int ->
  ?cooldown:int ->
  ?flows:int ->
  ?max_flow_hops:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  rng:Adhoc_util.Prng.t ->
  built ->
  result
(** Theorem 3.8: fixed transmission strength.  Requires [built.range = 1.]
    conceptually (hexagon side is [3 + 2Δ] in range units); uses hop costs
    (uniform transmission power).  [obs] as in {!run_scenario1} (run span
    [run/honeycomb]). *)
