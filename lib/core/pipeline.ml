module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Theta_alg = Adhoc_topo.Theta_alg
module Udg = Adhoc_topo.Udg
module Model = Adhoc_interference.Model
module Conflict = Adhoc_interference.Conflict
module Mac = Adhoc_mac.Mac
module Honeycomb = Adhoc_mac.Honeycomb
module Workload = Adhoc_routing.Workload
module Engine = Adhoc_routing.Engine
module Balancing = Adhoc_routing.Balancing
module Prng = Adhoc_util.Prng

type built = {
  points : Adhoc_geom.Point.t array;
  range : float;
  theta : float;
  delta : float;
  gstar : Graph.t;
  alg : Theta_alg.t;
  overlay : Graph.t;
  conflict : Conflict.t;
  interference_number : int;
}

let prepare ?(delta = 0.5) ?obs ?pool ~theta ~range points =
  let time label f = Adhoc_obs.time obs label f in
  let gstar = time "prepare/gstar" (fun () -> Udg.build ?pool ~range points) in
  let alg = time "prepare/theta-alg" (fun () -> Theta_alg.build ?pool ~theta ~range points) in
  let overlay = Theta_alg.overlay alg in
  let model = Model.make ~delta in
  let conflict = time "prepare/conflict" (fun () -> Conflict.build ?pool model ~points overlay) in
  let interference_number = Conflict.interference_number conflict in
  (match obs with
  | None -> ()
  | Some o ->
      let g name v = Adhoc_obs.Metrics.set (Adhoc_obs.Metrics.gauge o.Adhoc_obs.metrics name) v in
      g "topo.nodes" (float_of_int (Array.length points));
      g "topo.overlay_edges" (float_of_int (Graph.num_edges overlay));
      g "topo.interference_number" (float_of_int interference_number));
  {
    points;
    range;
    theta;
    delta;
    gstar;
    alg;
    overlay;
    conflict;
    interference_number;
  }

type result = {
  opt : Workload.opt_stats;
  stats : Engine.stats;
  throughput_ratio : float;
  cost_ratio : float;
  params : Balancing.params;
  workload : Workload.t;
  cost : Cost.t;
}

let make_result (w : Workload.t) ~cost stats params =
  let opt = w.Workload.opt in
  {
    opt;
    stats;
    throughput_ratio = Engine.throughput_ratio stats opt;
    cost_ratio = Engine.cost_ratio stats opt;
    params;
    workload = w;
    cost;
  }

let default_flows b = max 4 (Graph.n b.overlay / 32)

(* The scenarios' shared setup: certify [b]'s flows under [cost] (before
   [run] draws a MAC from [rng]), derive (T, γ) from the certified OPT —
   Theorem 3.1 for an interference-free workload, Theorem 3.3 otherwise —
   and hand both to [run].  The optional arguments arrive unresolved. *)
let certified_run ~epsilon ~attempts ~horizon ~cooldown ~flows ~max_flow_hops ~obs ~rng ~cost
    ~interference_free b run =
  let attempts = Option.value attempts ~default:horizon in
  let cooldown = Option.value cooldown ~default:horizon in
  let config = { Workload.horizon; attempts; slack = 12; interference_free } in
  let num_flows = Option.value flows ~default:(default_flows b) in
  let w =
    Adhoc_obs.time obs "workload/certify" (fun () ->
        Workload.flows ~conflict:b.conflict ?max_hops:max_flow_hops config ~rng ~graph:b.overlay
          ~cost ~num_flows)
  in
  let o = w.Workload.opt in
  let opt_buffer = o.Workload.max_buffer and opt_avg_hops = o.Workload.avg_hops in
  let opt_avg_cost = Float.max o.Workload.avg_cost 1e-9 in
  let params =
    if interference_free then
      Balancing.Derive.theorem_3_1 ~opt_buffer ~opt_avg_hops ~opt_avg_cost ~delta:o.Workload.delta
        ~epsilon
    else Balancing.Derive.theorem_3_3 ~opt_buffer ~opt_avg_hops ~opt_avg_cost ~epsilon
  in
  make_result w ~cost (run ~cooldown ~params w) params

let run_scenario1 ?(epsilon = 0.5) ?attempts ?(horizon = 2000) ?cooldown ?flows ?max_flow_hops
    ?(kappa = 2.) ?obs ?pool ~rng b =
  let cost = Cost.energy ~kappa in
  certified_run ~epsilon ~attempts ~horizon ~cooldown ~flows ~max_flow_hops ~obs ~rng ~cost
    ~interference_free:true b (fun ~cooldown ~params w ->
      Adhoc_obs.time obs "run/scenario1" (fun () ->
          Engine.run_mac_given ~cooldown ?obs ?pool ~pad:b.conflict ~graph:b.overlay ~cost ~params
            w))

let run_scenario2 ?(epsilon = 0.5) ?attempts ?(horizon = 2000) ?cooldown ?flows ?max_flow_hops
    ?(kappa = 2.) ?obs ?pool ~rng b =
  let cost = Cost.energy ~kappa in
  certified_run ~epsilon ~attempts ~horizon ~cooldown ~flows ~max_flow_hops ~obs ~rng ~cost
    ~interference_free:false b (fun ~cooldown ~params w ->
      let mac = Mac.random_interference ~rng:(Prng.split rng) b.conflict in
      Adhoc_obs.time obs "run/scenario2" (fun () ->
          Engine.run_with_mac ~cooldown ?obs ?pool ~collisions:b.conflict ~graph:b.overlay ~cost
            ~params ~mac w))

let run_honeycomb ?(epsilon = 0.5) ?attempts ?(horizon = 2000) ?cooldown ?flows ?max_flow_hops
    ?obs ?pool ~rng b =
  (* Fixed transmission strength: every hop costs the same. *)
  let cost = Cost.hops in
  certified_run ~epsilon ~attempts ~horizon ~cooldown ~flows ~max_flow_hops ~obs ~rng ~cost
    ~interference_free:false b (fun ~cooldown ~params w ->
      let hc =
        Honeycomb.create ~delta:b.delta ~range:b.range ~threshold:params.Balancing.threshold
          ~rng:(Prng.split rng) b.points
      in
      Adhoc_obs.time obs "run/honeycomb" (fun () ->
          Engine.run_with_mac ~cooldown ?obs ?pool ~collisions:b.conflict ~graph:b.overlay ~cost
            ~params ~mac:(Honeycomb.mac hc) w))
