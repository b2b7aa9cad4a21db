(* Experiments E7-E10: routing claims (paper Section 3).

   E7  Theorem 3.1 — (T,γ)-balancing vs OPT with MAC given: throughput
       approaches (1-ε)·OPT as the horizon grows; buffer factor and cost
       factor track the theorem's O(L̄/ε) and O(1/ε)
   E8  Thm 3.3/Lem 3.2 — random 1/(2Iₑ) MAC: per-edge collision probability
       ≤ 1/2; throughput within the Ω(1/I) regime
   E9  Corollary 3.5 — end-to-end ΘALG + (T,γ,I)-balancing vs n
   E10 Theorem 3.8 — honeycomb algorithm: competitive ratio flat in n *)

open Adhoc
open Common
module Prng = Util.Prng
module Graph = Graphs.Graph
module Workload = Routing.Workload
module Engine = Routing.Engine
module Balancing = Routing.Balancing
module Mac = Mac_protocols.Mac
module Conflict = Interference.Conflict

(* Shared live-telemetry probe (E7's tail and the standalone B3): run the
   Theorem 3.1 scenario with an event log and an Obs.Live recorder
   attached, print the window stream, and record the cumulative summary
   as the experiment's "live" member plus pinned live:* headline metrics.
   Everything here is a pure function of the event stream, so json_check
   --compare holds it exactly across --jobs. *)
let live_probe () =
  let rng, b = uniform_instance 1000 150 in
  let events = Obs.Event.create () in
  let live = Obs.Live.create ~window:500 () in
  Obs.Live.attach live events;
  let obs = Obs.create ~events () in
  let horizon = 4000 in
  let r =
    Pipeline.run_scenario1 ~obs ~epsilon:0.5 ~horizon ~attempts:(2 * horizon) ~flows:2 ~rng b
  in
  ignore r;
  let c = Obs.Live.finish live in
  let t =
    Table.create ~title:"live stream (window = 500 steps, seed 1000, n = 150)"
      [
        ("steps", Table.Right);
        ("injected", Table.Right);
        ("delivered", Table.Right);
        ("sends", Table.Right);
        ("buffered", Table.Right);
        ("latency p95", Table.Right);
      ]
  in
  List.iter
    (fun (w : Obs.Live.window) ->
      Table.add_row t
        [
          Printf.sprintf "%d-%d" w.Obs.Live.step_lo w.Obs.Live.step_hi;
          string_of_int w.Obs.Live.injected;
          string_of_int w.Obs.Live.delivered;
          string_of_int w.Obs.Live.sends;
          string_of_int w.Obs.Live.buffered;
          fmt_ratio w.Obs.Live.latency_p95;
        ])
    (Obs.Live.windows live);
  Table.print t;
  Printf.printf
    "cumulative: %d events in %d windows, delivered %d, healthy %s, latency p95 %s\n"
    c.Obs.Live.events c.Obs.Live.windows c.Obs.Live.totals.Obs.Mirror.delivered
    (if c.Obs.Live.healthy then "yes" else "NO")
    (fmt_ratio c.Obs.Live.c_latency_p95);
  record_int "live:events" c.Obs.Live.events;
  record_int "live:windows" c.Obs.Live.windows;
  record_int "live:delivered" c.Obs.Live.totals.Obs.Mirror.delivered;
  record_int "live:violations" c.Obs.Live.c_violations;
  record_live (live_json live)

let b3 () =
  header "B3: live streaming telemetry probe (Theorem 3.1 scenario)";
  live_probe ()

let e7 () =
  header "E7 (Theorem 3.1): balancing vs certified OPT, MAC given";
  (* Horizon sweep, per seed: throughput climbs as deliveries amortise the
     additive slack r (in-flight inventory).  Flows with longer paths (the
     later seeds) need proportionally longer horizons - r scales with
     L(T + gamma c). *)
  let t =
    Table.create ~title:"throughput ratio vs horizon (epsilon = 0.5, 2 flows, n = 150)"
      ([ ("horizon", Table.Right) ]
      @ List.map (fun s -> (Printf.sprintf "seed %d" s, Table.Right)) (seeds 3)
      @ [ ("cost ratio (max)", Table.Right); ("bound 1+2/eps", Table.Right) ])
  in
  let last_tput = ref 0. and last_cost = ref Float.nan in
  List.iter
    (fun horizon ->
      let costs = ref [] and tputs = ref [] in
      let cells =
        List.map
          (fun seed ->
            let rng, b = uniform_instance seed 150 in
            let r =
              Pipeline.run_scenario1 ?obs:(current_obs ()) ~epsilon:0.5 ~horizon ~attempts:(2 * horizon) ~flows:2
                ~rng b
            in
            if r.Pipeline.stats.Engine.delivered > 0 then
              costs := r.Pipeline.cost_ratio :: !costs;
            tputs := r.Pipeline.throughput_ratio :: !tputs;
            fmt3 r.Pipeline.throughput_ratio)
          (seeds 3)
      in
      last_tput := Stats.mean (Array.of_list !tputs);
      last_cost :=
        (match !costs with [] -> Float.nan | c :: cs -> List.fold_left Float.max c cs);
      Table.add_row t
        ([ string_of_int horizon ]
        @ cells
        @ [ fmt_ratio !last_cost; fmt2 (1. +. (2. /. 0.5)) ]))
    [ 2000; 8000; 32000; 64000 ];
  Table.print t;
  record_float "tput_ratio_mean_longest_horizon" !last_tput;
  record_float "cost_ratio_max_longest_horizon" !last_cost;
  (* Buffer-scale ablation at fixed epsilon: cap the buffers below the
     theorem's H and watch admission control trade throughput away. *)
  let t =
    Table.create ~title:"buffer ablation (seed 1000, horizon 16000, derived H scaled)"
      [
        ("capacity / H", Table.Right);
        ("capacity", Table.Right);
        ("dropped", Table.Right);
        ("tput ratio", Table.Right);
      ]
  in
  List.iter
    (fun scale ->
      let rng, b = uniform_instance 1000 150 in
      let horizon = 16000 in
      let cost = Cost.energy ~kappa:2. in
      let config =
        { Workload.horizon; attempts = 2 * horizon; slack = 12; interference_free = true }
      in
      let w =
        Workload.flows ~conflict:b.Pipeline.conflict config ~rng ~graph:b.Pipeline.overlay
          ~cost ~num_flows:2
      in
      let params =
        Balancing.Derive.theorem_3_1 ~opt_buffer:w.Workload.opt.Workload.max_buffer
          ~opt_avg_hops:w.Workload.opt.Workload.avg_hops
          ~opt_avg_cost:(Float.max w.Workload.opt.Workload.avg_cost 1e-9)
          ~delta:w.Workload.opt.Workload.delta ~epsilon:0.5
      in
      let capacity =
        max 2 (int_of_float (scale *. float_of_int params.Balancing.capacity))
      in
      let params = { params with Balancing.capacity } in
      let stats =
        Engine.run_mac_given ~cooldown:horizon ~pad:b.Pipeline.conflict
          ~graph:b.Pipeline.overlay ~cost ~params w
      in
      Table.add_row t
        [
          fmt2 scale;
          string_of_int capacity;
          string_of_int stats.Engine.dropped;
          fmt3 (Engine.throughput_ratio stats w.Workload.opt);
        ])
    [ 0.1; 0.25; 0.5; 1. ];
  Table.print t;
  (* Epsilon sweep: H scales as O(L/eps); T and gamma are eps-independent. *)
  let t =
    Table.create ~title:"epsilon sweep (seed 1000, horizon 16000)"
      [
        ("epsilon", Table.Right);
        ("buffer factor H/B", Table.Right);
        ("tput ratio", Table.Right);
        ("cost ratio", Table.Right);
        ("cost bound 1+2/eps", Table.Right);
      ]
  in
  List.iter
    (fun epsilon ->
      let rng, b = uniform_instance 1000 150 in
      let r = Pipeline.run_scenario1 ?obs:(current_obs ()) ~epsilon ~horizon:16000 ~attempts:32000 ~flows:2 ~rng b in
      Table.add_row t
        [
          fmt2 epsilon;
          fmt2
            (float_of_int r.Pipeline.params.Balancing.capacity
            /. float_of_int (max 1 r.Pipeline.opt.Workload.max_buffer));
          fmt3 r.Pipeline.throughput_ratio;
          fmt_ratio r.Pipeline.cost_ratio;
          fmt2 (1. +. (2. /. epsilon));
        ])
    [ 0.9; 0.7; 0.5; 0.3 ];
  Table.print t;
  print_endline
    "paper: throughput climbs toward (1-eps)OPT as the additive slack";
  print_endline
    "amortises; smaller buffers force drops and lower throughput (the B'";
  print_endline "axis); H/B grows as O(L/eps); cost ratio stays under 1+2/eps.";
  print_newline ();
  live_probe ()

(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8 (Theorem 3.3 / Lemma 3.2): random 1/(2Ie) MAC";
  (* Lemma 3.2: measure the collision probability of active edges when all
     edges request every step. *)
  let t =
    Table.create ~title:"Lemma 3.2: collision probability of an active edge (<= 1/2)"
      [
        ("n", Table.Right);
        ("I", Table.Right);
        ("max analytic bound", Table.Right);
        ("mean measured", Table.Right);
        ("max measured (>=200 activations)", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let _, b = uniform_instance ~range_factor:1.2 42 n in
      let m = Graph.num_edges b.Pipeline.overlay in
      let mac = Mac.random_interference ~rng:(Prng.create 7) b.Pipeline.conflict in
      (* Every edge requests, in descending edge id. *)
      let edge = Array.init m (fun i -> m - 1 - i) in
      let sender = Array.map (Graph.edge_u b.Pipeline.overlay) edge in
      let benefit = Array.make m 1. and granted = Array.make m 0 in
      let active_count = Array.make m 0 and collided_count = Array.make m 0 in
      for step = 1 to 20000 do
        let count = mac.Mac.select ~step ~edge ~sender ~benefit ~count:m ~granted in
        for i = 0 to count - 1 do
          let e = edge.(granted.(i)) in
          active_count.(e) <- active_count.(e) + 1;
          let hit = ref false in
          for j = 0 to count - 1 do
            let e' = edge.(granted.(j)) in
            if e' <> e && Conflict.interfere b.Pipeline.conflict e e' then hit := true
          done;
          if !hit then collided_count.(e) <- collided_count.(e) + 1
        done
      done;
      (* The provable quantity: the union bound sum over I(e) of 1/(2 I_e'),
         which Lemma 3.2 shows is at most 1/2 for every edge. *)
      let bounds = Conflict.neighborhood_bounds b.Pipeline.conflict in
      let { Conflict.offsets; partners; _ } = b.Pipeline.conflict in
      let analytic = ref 0. in
      for e = 0 to m - 1 do
        let s = ref 0. in
        for k = offsets.(e) to offsets.(e + 1) - 1 do
          s := !s +. (1. /. (2. *. float_of_int (max 1 bounds.(Int32.to_int partners.{k}))))
        done;
        analytic := Float.max !analytic !s
      done;
      (* No edge may reach 200 activations (n = 256): the maximum is then
         empty and prints as n/a, not as 0. *)
      let measured = ref [] and max_solid = ref None in
      Array.iteri
        (fun e a ->
          if a > 0 then begin
            let p = float_of_int collided_count.(e) /. float_of_int a in
            measured := p :: !measured;
            if a >= 200 then
              max_solid := Some (Option.fold ~none:p ~some:(Float.max p) !max_solid)
          end)
        active_count;
      Table.add_row t
        [
          string_of_int n;
          string_of_int b.Pipeline.interference_number;
          fmt3 !analytic;
          fmt3 (Stats.mean (Array.of_list !measured));
          Option.fold ~none:"n/a" ~some:fmt3 !max_solid;
        ])
    [ 64; 128; 256 ];
  Table.print t;
  (* Throughput under the random MAC, against the interference-oblivious
     certified OPT. *)
  let t =
    Table.create ~title:"throughput under random MAC (horizon 80000, 2 flows)"
      [
        ("n", Table.Right);
        ("I", Table.Right);
        ("tput ratio", Table.Right);
        ("ratio x 8I", Table.Right);
        ("CSMA tput (same workload)", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let rng, b = uniform_instance ~range_factor:1.1 ~delta:0.2 11 n in
      let r =
        Pipeline.run_scenario2 ?obs:(current_obs ()) ~epsilon:0.5 ~horizon:80000 ~attempts:80000 ~flows:2
          ~max_flow_hops:3 ~rng b
      in
      (* The same certified workload under a carrier-sense MAC: grants are
         maximal independent sets, so nothing collides and concurrency far
         exceeds the conservative 1/(2Ie) coin flips. *)
      let csma_tput =
        let rng2, b2 = uniform_instance ~range_factor:1.1 ~delta:0.2 11 n in
        let cost = Cost.energy ~kappa:2. in
        let horizon = 80000 in
        let config =
          { Workload.horizon; attempts = horizon; slack = 12; interference_free = false }
        in
        let w =
          Workload.flows ~max_hops:3 config ~rng:rng2 ~graph:b2.Pipeline.overlay ~cost
            ~num_flows:2
        in
        let params =
          Balancing.Derive.theorem_3_3 ~opt_buffer:w.Workload.opt.Workload.max_buffer
            ~opt_avg_hops:w.Workload.opt.Workload.avg_hops
            ~opt_avg_cost:(Float.max w.Workload.opt.Workload.avg_cost 1e-9)
            ~epsilon:0.5
        in
        let mac = Mac.csma ~rng:(Prng.create (n + 1)) b2.Pipeline.conflict in
        let stats =
          Engine.run_with_mac ~cooldown:horizon ~collisions:b2.Pipeline.conflict
            ~graph:b2.Pipeline.overlay ~cost ~params ~mac w
        in
        Engine.throughput_ratio stats w.Workload.opt
      in
      record_float (Printf.sprintf "tput_ratio_random_mac_n%d" n)
        r.Pipeline.throughput_ratio;
      record_float (Printf.sprintf "tput_ratio_csma_n%d" n) csma_tput;
      Table.add_row t
        [
          string_of_int n;
          string_of_int b.Pipeline.interference_number;
          fmt4 r.Pipeline.throughput_ratio;
          fmt2 (r.Pipeline.throughput_ratio *. 8. *. float_of_int b.Pipeline.interference_number);
          fmt4 csma_tput;
        ])
    [ 48; 96; 160 ];
  Table.print t;
  print_endline
    "paper: collision probability <= 1/2 per active edge (Lemma 3.2); the";
  print_endline "throughput ratio scaled by 8I stays bounded away from 0 (Theorem 3.3)."

(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9 (Corollary 3.5): end-to-end competitiveness vs n (random nodes)";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("I", Table.Right);
        ("ln n", Table.Right);
        ("tput ratio", Table.Right);
        ("ratio x I", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let rng, b = uniform_instance ~range_factor:1.1 ~delta:0.2 23 n in
      let r =
        Pipeline.run_scenario2 ?obs:(current_obs ()) ~epsilon:0.5 ~horizon:80000 ~attempts:80000 ~flows:2
          ~max_flow_hops:3 ~rng b
      in
      record_float (Printf.sprintf "tput_ratio_n%d" n) r.Pipeline.throughput_ratio;
      record_float
        (Printf.sprintf "tput_ratio_times_I_n%d" n)
        (r.Pipeline.throughput_ratio *. float_of_int b.Pipeline.interference_number);
      Table.add_row t
        [
          string_of_int n;
          string_of_int b.Pipeline.interference_number;
          fmt2 (log (float_of_int n));
          fmt4 r.Pipeline.throughput_ratio;
          fmt2 (r.Pipeline.throughput_ratio *. float_of_int b.Pipeline.interference_number);
        ])
    [ 32; 64; 128; 256 ];
  Table.print t;
  print_endline
    "paper: with I = O(log n) (E5), the end-to-end stack is O(1/log n)-";
  print_endline "competitive: ratio x I stays roughly flat while 1/ratio grows like I."

(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10 (Theorem 3.8): honeycomb algorithm, fixed transmission strength";
  let t =
    Table.create
      [
        ("box side", Table.Right);
        ("n", Table.Right);
        ("hexagons", Table.Right);
        ("tput ratio", Table.Right);
        ("random-MAC tput", Table.Right);
      ]
  in
  List.iter
    (fun (side, n) ->
      let rng = Prng.create 31 in
      let box = Geom.Box.square side in
      let points = Pointset.Generators.uniform ~box rng n in
      let b = Pipeline.prepare ~theta:theta_default ~range:1.3 points in
      let hexes =
        Geom.Hexgrid.group_points (Geom.Hexgrid.make ~side:4.) points |> List.length
      in
      let r =
        Pipeline.run_honeycomb ?obs:(current_obs ()) ~epsilon:0.5 ~horizon:30000 ~attempts:30000 ~flows:2
          ~max_flow_hops:4 ~rng:(Prng.create 32) b
      in
      let r2 =
        Pipeline.run_scenario2 ?obs:(current_obs ()) ~epsilon:0.5 ~horizon:30000 ~attempts:30000 ~flows:2
          ~max_flow_hops:4 ~rng:(Prng.create 32) b
      in
      record_float (Printf.sprintf "honeycomb_tput_ratio_n%d" n)
        r.Pipeline.throughput_ratio;
      record_float (Printf.sprintf "random_mac_tput_ratio_n%d" n)
        r2.Pipeline.throughput_ratio;
      Table.add_row t
        [
          fmt2 side;
          string_of_int n;
          string_of_int hexes;
          fmt4 r.Pipeline.throughput_ratio;
          fmt4 r2.Pipeline.throughput_ratio;
        ])
    [ (6., 60); (9., 135); (12., 240); (15., 375) ];
  Table.print t;
  print_endline
    "paper: the honeycomb ratio is O(1) - flat as the network grows - while";
  print_endline "the generic random MAC degrades with I (its ratio falls with n)."
