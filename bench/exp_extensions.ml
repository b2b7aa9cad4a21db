(* Experiments E12-E14: extensions beyond the paper's headline claims.

   E12 — the introduction's strawman: k-nearest-neighbour graphs do not
         guarantee connectivity or constant degree; ΘALG does, at a
         comparable edge budget.
   E13 — θ ablation: degree bound / stretch / interference / maintenance
         traffic as the sector angle varies, plus per-packet latency
         rebuilt from the run's event log.
   E14 — geographic routing (the related-work baseline): greedy success
         rates per topology, face-routing recovery cost, and path quality
         vs the shortest path. *)

open Adhoc
open Common
module Prng = Util.Prng
module Graph = Graphs.Graph
module Conflict = Interference.Conflict
module Model = Interference.Model

let e12 () =
  header "E12 (intro claim): k-nearest-neighbour vs ThetaALG";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("k=1 conn (of 10)", Table.Right);
        ("k=2 conn", Table.Right);
        ("k=3 conn", Table.Right);
        ("min k (worst)", Table.Right);
        ("kNN(3) max deg", Table.Right);
        ("theta conn (of 10)", Table.Right);
        ("theta max deg", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let conn = Array.make 4 0 in
      let theta_conn = ref 0 in
      let worst_k = ref 0 in
      let knn_deg = ref 0 and theta_deg = ref 0 in
      List.iter
        (fun seed ->
          let rng = Prng.create seed in
          let points = Pointset.Generators.clusters ~num_clusters:6 ~spread:0.05 rng n in
          List.iter
            (fun k ->
              if Graphs.Components.is_connected (Topo.Knn.build ~k points) then
                conn.(k) <- conn.(k) + 1)
            [ 1; 2; 3 ];
          knn_deg := max !knn_deg (Graph.max_degree (Topo.Knn.build ~k:3 points));
          (match Topo.Knn.min_connecting_k points with
          | Some k -> worst_k := max !worst_k k
          | None -> worst_k := max !worst_k n);
          let range = 1.5 *. Topo.Udg.critical_range points in
          let ov = Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta:theta_default ~range points) in
          if Graphs.Components.is_connected ov then incr theta_conn;
          theta_deg := max !theta_deg (Graph.max_degree ov))
        (seeds 10);
      Table.add_row t
        [
          string_of_int n;
          string_of_int conn.(1);
          string_of_int conn.(2);
          string_of_int conn.(3);
          string_of_int !worst_k;
          string_of_int !knn_deg;
          string_of_int !theta_conn;
          string_of_int !theta_deg;
        ])
    [ 64; 128; 256 ];
  Table.print t;
  print_endline
    "paper (intro): kNN 'does not guarantee connectivity or a constant";
  print_endline
    "degree per node' - clustered deployments need large, instance-specific";
  print_endline "k, while the theta overlay is connected in every run."

(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13 (ablation): the sector angle theta";
  let t =
    Table.create ~title:"topology quality vs theta (n = 256 uniform, mean of 3 seeds)"
      [
        ("theta", Table.Left);
        ("bound 4pi/theta", Table.Right);
        ("max deg", Table.Right);
        ("edges", Table.Right);
        ("energy stretch", Table.Right);
        ("dist stretch", Table.Right);
        ("I", Table.Right);
        ("msgs/node", Table.Right);
      ]
  in
  List.iter
    (fun (name, theta) ->
      let deg = ref 0. and edges = ref 0. and es = ref 0. and ds = ref 0. in
      let inum = ref 0. and msgs = ref 0. in
      let k = 3 in
      List.iter
        (fun seed ->
          let rng = Prng.create seed in
          let points = Pointset.Generators.uniform rng 256 in
          let range = 1.5 *. Topo.Udg.critical_range points in
          let gstar = Topo.Udg.build ~range points in
          let alg = Topo.Theta_alg.build ~theta ~range points in
          let ov = Topo.Theta_alg.overlay alg in
          let conflict = Conflict.build (Model.make ~delta:0.5) ~points ov in
          deg := !deg +. float_of_int (Graph.max_degree ov);
          edges := !edges +. float_of_int (Graph.num_edges ov);
          es :=
            !es
            +. Graphs.Stretch.over_base_edges ~sub:ov ~base:gstar
                 ~cost:(Cost.energy ~kappa:2.) ();
          ds := !ds +. Graphs.Stretch.over_base_edges ~sub:ov ~base:gstar ~cost:Cost.length ();
          inum := !inum +. float_of_int (Conflict.interference_number conflict);
          let m = Topo.Theta_alg.messages alg in
          msgs :=
            !msgs
            +. float_of_int Topo.Theta_alg.(m.position + m.neighborhood + m.connection) /. 256.)
        (seeds k);
      let f x = x /. float_of_int k in
      Table.add_row t
        [
          name;
          string_of_int (Topo.Theta_alg.degree_bound ~theta);
          fmt2 (f !deg);
          Printf.sprintf "%.0f" (f !edges);
          fmt3 (f !es);
          fmt3 (f !ds);
          Printf.sprintf "%.0f" (f !inum);
          fmt2 (f !msgs);
        ])
    [
      ("pi/3", Float.pi /. 3.);
      ("pi/4", Float.pi /. 4.);
      ("pi/6", Float.pi /. 6.);
      ("pi/12", Float.pi /. 12.);
      ("pi/24", Float.pi /. 24.);
    ];
  Table.print t;
  (* Per-packet latency: Journey replays the run's event log. *)
  let t =
    Table.create ~title:"per-packet latency (event-log journeys, scenario 1, n = 150, seed 1000)"
      [
        ("horizon", Table.Right);
        ("delivered", Table.Right);
        ("latency mean", Table.Right);
        ("latency p95", Table.Right);
        ("hops mean", Table.Right);
        ("energy/pkt", Table.Right);
      ]
  in
  List.iter
    (fun horizon ->
      let rng = Prng.create 1000 in
      let points = Pointset.Generators.uniform rng 150 in
      let range = 1.5 *. Topo.Udg.critical_range points in
      let b = Pipeline.prepare ~theta:theta_default ~range points in
      let cost = Cost.energy ~kappa:2. in
      let config =
        {
          Routing.Workload.horizon;
          attempts = 2 * horizon;
          slack = 12;
          interference_free = true;
        }
      in
      let w =
        Routing.Workload.flows ~conflict:b.Pipeline.conflict config ~rng
          ~graph:b.Pipeline.overlay ~cost ~num_flows:2
      in
      let params =
        Routing.Balancing.Derive.theorem_3_1
          ~opt_buffer:w.Routing.Workload.opt.Routing.Workload.max_buffer
          ~opt_avg_hops:w.Routing.Workload.opt.Routing.Workload.avg_hops
          ~opt_avg_cost:(Float.max w.Routing.Workload.opt.Routing.Workload.avg_cost 1e-9)
          ~delta:w.Routing.Workload.opt.Routing.Workload.delta ~epsilon:0.5
      in
      (* The experiment's sink, if any, keeps its spans and metrics. *)
      let log = Obs.Event.create () in
      let obs =
        match current_obs () with
        | Some sink -> { sink with Obs.events = Some log }
        | None -> Obs.create ~events:log ()
      in
      let r =
        Routing.Engine.run_mac_given ~cooldown:horizon ~obs ~pad:b.Pipeline.conflict
          ~graph:b.Pipeline.overlay ~cost ~params w
      in
      let j = Routing.Journey.analyze (Obs.Event.to_array log) in
      Table.add_row t
        [
          string_of_int horizon;
          string_of_int r.Routing.Engine.delivered;
          fmt2 j.Routing.Journey.latency_mean;
          fmt2 j.Routing.Journey.latency_p95;
          fmt2 j.Routing.Journey.hops_mean;
          fmt4 j.Routing.Journey.energy_per_delivered;
        ])
    [ 4000; 16000 ];
  Table.print t;
  print_endline
    "smaller theta buys lower stretch at the cost of degree, interference";
  print_endline "and maintenance messages; latency reflects the gradient ramp-up."

(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14 (related work): geographic routing on the built topologies";
  let t =
    Table.create ~title:"greedy success rate (500 connected pairs, mean of 3 seeds)"
      [
        ("topology", Table.Left);
        ("uniform", Table.Right);
        ("ring (voids)", Table.Right);
        ("clusters", Table.Right);
      ]
  in
  let topologies points range =
    [
      ("G*", Topo.Udg.build ~range points);
      ( "theta overlay",
        Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta:theta_default ~range points) );
      ("gabriel", Topo.Gabriel.build ~range points);
    ]
  in
  let dists =
    [
      ("uniform", fun rng -> Pointset.Generators.uniform rng 200);
      ("ring", fun rng -> Pointset.Generators.ring ~width:0.15 rng 200);
      ("clusters", fun rng -> Pointset.Generators.clusters ~num_clusters:5 ~spread:0.05 rng 200);
    ]
  in
  let rates = Hashtbl.create 16 in
  List.iter
    (fun (dname, gen) ->
      List.iter
        (fun seed ->
          let rng = Prng.create seed in
          let points = gen rng in
          let range = 1.3 *. Topo.Udg.critical_range points in
          List.iter
            (fun (tname, g) ->
              let r =
                Routing.Geo.success_rate g points ~rng:(Prng.create (seed + 7)) ~trials:500
              in
              Hashtbl.replace rates (tname, dname)
                (r :: Option.value ~default:[] (Hashtbl.find_opt rates (tname, dname))))
            (topologies points range))
        (seeds 3))
    dists;
  List.iter
    (fun tname ->
      let cell dname = fmt3 (Stats.mean (Array.of_list (Hashtbl.find rates (tname, dname)))) in
      Table.add_row t [ tname; cell "uniform"; cell "ring"; cell "clusters" ])
    [ "G*"; "theta overlay"; "gabriel" ];
  Table.print t;
  (* Face-routing recovery and path quality on the hard (ring) case. *)
  let t =
    Table.create ~title:"greedy+face on the ring deployment (G* with Gabriel recovery)"
      [
        ("metric", Table.Left);
        ("value", Table.Right);
      ]
  in
  let rng = Prng.create 5 in
  let points = Pointset.Generators.ring ~width:0.15 rng 200 in
  let range = 1.2 *. Topo.Udg.critical_range points in
  let gstar = Topo.Udg.build ~range points in
  let gabriel = Topo.Gabriel.build ~range points in
  let delivered = ref 0 and total = ref 0 and used_recovery = ref 0 in
  let stretch = ref [] in
  for _ = 1 to 500 do
    let src = Prng.int rng 200 and dst = Prng.int rng 200 in
    if src <> dst then begin
      incr total;
      match Routing.Geo.greedy_face ~planar:gabriel gstar points ~src ~dst with
      | None -> ()
      | Some r ->
          incr delivered;
          if r.Routing.Geo.recovery_hops > 0 then incr used_recovery;
          let sp = Graphs.Dijkstra.distance gstar ~cost:Cost.length src dst in
          if sp > 0. then stretch := (r.Routing.Geo.length /. sp) :: !stretch
    end
  done;
  Table.add_row t [ "delivery rate"; fmt3 (float_of_int !delivered /. float_of_int !total) ];
  Table.add_row t
    [ "routes needing recovery"; fmt3 (float_of_int !used_recovery /. float_of_int !total) ];
  Table.add_row t
    [ "mean path stretch vs shortest"; fmt3 (Stats.mean (Array.of_list !stretch)) ];
  Table.add_row t
    [ "p95 path stretch"; fmt3 (Stats.percentile (Array.of_list !stretch) 95.) ];
  Table.print t;
  print_endline
    "greedy alone fails at voids (the ring); face recovery on the planar";
  print_endline
    "Gabriel subgraph restores delivery at a bounded path-stretch cost -";
  print_endline "the stateless alternative the paper's related work cites (GPSR)."


(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15 (related work): adversarial-queueing disciplines on fixed paths";
  let module Q = Routing.Queueing in
  let rng = Prng.create 4 in
  let points = Pointset.Generators.uniform rng 100 in
  let range = 1.5 *. Topo.Udg.critical_range points in
  let b = Pipeline.prepare ~theta:theta_default ~range points in
  let graph = b.Pipeline.overlay in
  let cost = Cost.energy ~kappa:2. in
  let wl_rng = Prng.create 4 in
  let t =
    Table.create
      ~title:"12 fixed shortest-path flows on the overlay; per-step, per-edge service"
      [
        ("rate/flow", Table.Right);
        ("injected", Table.Right);
        ("discipline", Table.Left);
        ("max queue", Table.Right);
        ("avg latency", Table.Right);
      ]
  in
  List.iter
    (fun rate ->
      let w = Q.path_flows ~horizon:3000 ~rng:wl_rng ~graph ~cost ~num_flows:12 ~rate in
      List.iter
        (fun d ->
          let s = Q.run ~cooldown:3000 ~graph ~cost d w in
          Table.add_row t
            [
              fmt2 rate;
              string_of_int s.Q.injected;
              Q.discipline_name d;
              string_of_int s.Q.max_queue;
              fmt2 s.Q.avg_latency;
            ])
        [ Q.Fifo; Q.Lifo; Q.Furthest_to_go; Q.Nearest_to_go; Q.Longest_in_system ])
    [ 0.1; 0.3; 0.5 ];
  Table.print t;
  print_endline
    "adversarial queueing theory (paper Section 1.2): with paths fixed by the";
  print_endline
    "adversary only the contention rule is left to choose; queue growth and";
  print_endline "latency separate the disciplines once shared edges saturate."


(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16 (model fidelity): guard-zone (protocol) model vs SINR (physical)";
  let t =
    Table.create
      ~title:
        "fraction of protocol-model non-interfering sets that decode under SINR (alpha=3, beta=2)"
      [
        ("delta", Table.Right);
        ("mean |T|", Table.Right);
        ("SINR-feasible fraction", Table.Right);
        ("sets fully feasible", Table.Right);
      ]
  in
  let rng = Prng.create 3 in
  let points = Pointset.Generators.uniform rng 150 in
  let range = 1.3 *. Topo.Udg.critical_range points in
  let ov = Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta:theta_default ~range points) in
  let sinr = Interference.Sinr.make ~alpha:3. () in
  List.iter
    (fun delta ->
      let c = Conflict.build (Model.make ~delta) ~points ov in
      let fracs = ref [] and sizes = ref [] and full = ref 0 in
      let trials = 30 in
      for _ = 1 to trials do
        let ids = Array.init (Graph.num_edges ov) Fun.id in
        Prng.shuffle rng ids;
        let set = Conflict.max_independent_greedy c (Array.to_list ids) in
        let txs = Array.of_list (List.map (Graph.endpoints ov) set) in
        let f = Interference.Sinr.feasible_fraction sinr ~points ~transmissions:txs in
        fracs := f :: !fracs;
        sizes := float_of_int (Array.length txs) :: !sizes;
        if Interference.Sinr.all_feasible sinr ~points ~transmissions:txs then incr full
      done;
      Table.add_row t
        [
          fmt2 delta;
          fmt2 (Stats.mean (Array.of_list !sizes));
          fmt3 (Stats.mean (Array.of_list !fracs));
          Printf.sprintf "%d/%d" !full trials;
        ])
    [ 0.; 0.25; 0.5; 1.; 2. ];
  Table.print t;
  print_endline
    "the paper's protocol model is a simplification of the physical model";
  print_endline
    "(Section 2.4): a guard zone of delta >= 1 makes its non-interfering sets";
  print_endline "fully SINR-decodable here, at the cost of smaller concurrent sets."


(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17 (maintenance): locality of overlay repair under motion";
  let t =
    Table.create
      ~title:"small random-waypoint steps; incremental repair = full rebuild (tested)"
      [
        ("n", Table.Right);
        ("mean affected nodes", Table.Right);
        ("affected / n", Table.Right);
        ("ln n", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let rng = Prng.create 9 in
      let points = Pointset.Generators.uniform rng n in
      let range = 1.3 *. Topo.Udg.critical_range points in
      let m = Topo.Maintenance.create ~theta:theta_default ~range points in
      let affected = ref [] in
      for _ = 1 to 40 do
        let i = Prng.int rng n in
        let p = (Topo.Maintenance.points m).(i) in
        (* A small move: a fraction of the transmission range. *)
        let np =
          Geom.Box.clamp Geom.Box.unit_square
            (Geom.Point.make
               (p.Geom.Point.x +. Prng.range rng (-0.3) 0.3 *. range)
               (p.Geom.Point.y +. Prng.range rng (-0.3) 0.3 *. range))
        in
        Topo.Maintenance.move m i np;
        affected := float_of_int (Topo.Maintenance.last_affected m) :: !affected
      done;
      let mean = Stats.mean (Array.of_list !affected) in
      Table.add_row t
        [
          string_of_int n;
          fmt2 mean;
          fmt3 (mean /. float_of_int n);
          fmt2 (log (float_of_int n));
        ])
    [ 64; 128; 256; 512; 1024 ];
  Table.print t;
  print_endline
    "the repair after a move touches only nodes within 2x range of it: the";
  print_endline
    "affected count tracks the local density (~log n at connectivity-scaled";
  print_endline "range), while the affected *fraction* of the network vanishes."


(* ------------------------------------------------------------------ *)

let e18 () =
  header "E18 (extension): cost-aware anycast vs unicast to a fixed sink";
  let rng = Prng.create 7 in
  let points = Pointset.Generators.uniform rng 120 in
  let range = 1.4 *. Topo.Udg.critical_range points in
  let b = Pipeline.prepare ~theta:theta_default ~range points in
  let nearest target =
    let best = ref 0 and bd = ref infinity in
    Array.iteri
      (fun i p ->
        let d = Geom.Point.dist p target in
        if d < !bd then begin
          bd := d;
          best := i
        end)
      points;
    !best
  in
  let sinks =
    [|
      nearest (Geom.Point.make 0. 0.);
      nearest (Geom.Point.make 1. 0.);
      nearest (Geom.Point.make 0. 1.);
      nearest (Geom.Point.make 1. 1.);
    |]
  in
  let params = Routing.Balancing.params ~threshold:1. ~gamma:1. ~capacity:100 in
  let horizon = 6000 in
  (* Injections stop at the horizon; as many steps again let the packets
     in flight drain. *)
  let run members =
    let inj_rng = Prng.create 8 in
    let injections t =
      if t < horizon && t mod 4 = 0 then [ (Prng.int inj_rng 120, 0) ] else []
    in
    let absorbed = Array.make 120 0 in
    let s =
      Routing.Engine.run ~who:"e18" ~params ~heights:Live
        ~absorb:(Group { members; absorbed }) ~injections
        [
          {
            Routing.Engine.graph = b.Pipeline.overlay;
            cost = Cost.energy ~kappa:2.;
            activation = Rounds (Some b.Pipeline.conflict);
            steps = 2 * horizon;
            epoch = None;
          };
        ]
    in
    (s, absorbed)
  in
  let t =
    Table.create
      [
        ("destination set", Table.Left);
        ("delivered", Table.Right);
        ("remaining", Table.Right);
        ("energy/delivery", Table.Right);
        ("absorption spread", Table.Left);
      ]
  in
  List.iter
    (fun (name, members) ->
      let s, absorbed = run members in
      let delivered = s.Routing.Engine.delivered in
      let per =
        Array.to_seqi absorbed
        |> Seq.filter_map (fun (v, k) -> if k > 0 then Some (Printf.sprintf "%d:%d" v k) else None)
        |> List.of_seq |> String.concat " "
      in
      Table.add_row t
        [
          name;
          string_of_int delivered;
          string_of_int s.Routing.Engine.remaining;
          fmt4
            (if delivered = 0 then 0.
             else s.Routing.Engine.total_cost /. float_of_int delivered);
          per;
        ])
    [
      ("single sink (corner)", [| [| sinks.(0) |] |]);
      ("anycast 2 sinks", [| [| sinks.(0); sinks.(3) |] |]);
      ("anycast 4 sinks", [| sinks |]);
    ];
  Table.print t;
  print_endline
    "the paper generalises anycast balancing [10] with edge costs: the same";
  print_endline
    "(T,gamma) rule, heights pinned to zero at every group member, delivers";
  print_endline "more packets at lower energy as the destination set grows."


(* ------------------------------------------------------------------ *)

let e19 () =
  header "E19 (Section 3.2 remark): reduced control-information exchange";
  let module W = Routing.Workload in
  let rng = Prng.create 1000 in
  let points = Pointset.Generators.uniform rng 150 in
  let range = 1.5 *. Topo.Udg.critical_range points in
  let b = Pipeline.prepare ~theta:theta_default ~range points in
  let cost = Cost.energy ~kappa:2. in
  let horizon = 8000 in
  let config = { W.horizon; attempts = 2 * horizon; slack = 12; interference_free = true } in
  let w =
    W.flows ~conflict:b.Pipeline.conflict config ~rng ~graph:b.Pipeline.overlay ~cost
      ~num_flows:2
  in
  let params =
    Routing.Balancing.Derive.theorem_3_1 ~opt_buffer:w.W.opt.W.max_buffer
      ~opt_avg_hops:w.W.opt.W.avg_hops
      ~opt_avg_cost:(Float.max w.W.opt.W.avg_cost 1e-9)
      ~delta:w.W.opt.W.delta ~epsilon:0.5
  in
  let t =
    Table.create
      ~title:
        "height advertisements only when drifted > q (n = 150, scenario 1, 16000 steps)"
      [
        ("quantum q", Table.Right);
        ("delivered", Table.Right);
        ("control msgs", Table.Right);
        ("msgs vs continuous", Table.Right);
      ]
  in
  (* Injections stop at the horizon; as many steps again let the packets
     in flight drain.  Continuous exchange would send one message per
     node per step. *)
  let steps = 2 * horizon in
  let continuous = steps * Graph.n b.Pipeline.overlay in
  List.iter
    (fun quantum ->
      let adverts = ref 0 in
      let s =
        Routing.Engine.run ~who:"e19" ~params ~heights:(Advertised { quantum; adverts })
          ~absorb:Destination
          ~injections:(fun t -> if t < horizon then w.W.injections.(t) else [])
          [
            {
              Routing.Engine.graph = b.Pipeline.overlay;
              cost;
              activation = Given (w, Some b.Pipeline.conflict);
              steps;
              epoch = None;
            };
          ]
      in
      Table.add_row t
        [
          string_of_int quantum;
          string_of_int s.Routing.Engine.delivered;
          string_of_int !adverts;
          Printf.sprintf "%.5f" (float_of_int !adverts /. float_of_int continuous);
        ])
    [ 0; 1; 2; 4; 8; 16 ];
  Table.print t;
  print_endline
    "the paper defers this to the full version: advertising heights only on";
  print_endline
    "drift > q cuts control traffic by orders of magnitude with essentially";
  print_endline "no throughput loss until q approaches the threshold T."


(* ------------------------------------------------------------------ *)

let e20 () =
  header "E20 (context, Gupta-Kumar [24]): capacity scaling on the overlay";
  (* Per-node transport capacity of a random network scales as
     Theta(1 / sqrt(n log n)).  Decompose it on our substrate: the number
     of concurrently schedulable overlay edges S(n) (spatial reuse) over
     nodes x mean hop count H(n) of random pairs. *)
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("S(n) concurrent", Table.Right);
        ("mean hops H(n)", Table.Right);
        ("lambda = S/(n H)", Table.Right);
        ("lambda x sqrt(n ln n)", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let s_vals = ref [] and h_vals = ref [] in
      List.iter
        (fun seed ->
          let rng, b = uniform_instance ~range_factor:1.2 seed n in
          let c = b.Pipeline.conflict in
          let g = b.Pipeline.overlay in
          (* Spatial reuse: size of a maximal independent edge set. *)
          let ids = Array.init (Graph.num_edges g) Fun.id in
          Prng.shuffle rng ids;
          let indep = Interference.Conflict.max_independent_greedy c (Array.to_list ids) in
          s_vals := float_of_int (List.length indep) :: !s_vals;
          (* Mean hop length of random connected pairs. *)
          let hops = ref 0 and cnt = ref 0 in
          for _ = 1 to 30 do
            let src = Prng.int rng n and dst = Prng.int rng n in
            if src <> dst then begin
              let d = (Graphs.Bfs.hops g ~src).(dst) in
              if d < max_int then begin
                hops := !hops + d;
                incr cnt
              end
            end
          done;
          if !cnt > 0 then h_vals := float_of_int !hops /. float_of_int !cnt :: !h_vals)
        (seeds 5);
      let s = Stats.mean (Array.of_list !s_vals) in
      let h = Stats.mean (Array.of_list !h_vals) in
      let nf = float_of_int n in
      let lambda = s /. (nf *. h) in
      Table.add_row t
        [
          string_of_int n;
          fmt2 s;
          fmt2 h;
          fmt4 lambda;
          fmt3 (lambda *. sqrt (nf *. log nf));
        ])
    [ 64; 128; 256; 512; 1024 ];
  Table.print t;
  print_endline
    "Gupta-Kumar: per-node transport capacity is Theta(1/sqrt(n log n)) -";
  print_endline
    "lambda x sqrt(n ln n) should stay roughly flat while raw lambda falls";
  print_endline "an order of magnitude across the sweep."
