(* Disaster relief: clustered teams of mobile responders. Nodes move by the
   random-waypoint model; the ΘALG overlay is recomputed as the network
   changes — the paper's motivation for *local* topology control: every
   recomputation costs only three rounds of local messages.

   The example tracks, across mobility epochs, how the overlay keeps its
   guarantees (connectivity, constant degree, bounded energy stretch) while
   the node positions drift, and how much message traffic maintenance costs.

   Run with:  dune exec examples/disaster_relief.exe *)

open Adhoc
module Prng = Util.Prng
module Graph = Graphs.Graph
module Table = Util.Table

let theta = Float.pi /. 6.

let () =
  let rng = Prng.create 99 in

  (* Four teams of responders around incident sites. *)
  let points = Pointset.Generators.clusters ~num_clusters:4 ~spread:0.07 rng 120 in
  Printf.printf "disaster relief: %d responders in 4 clusters\n\n" (Array.length points);

  let mobility =
    Pointset.Mobility.create ~pause:5 ~speed_min:0.002 ~speed_max:0.01 rng points
  in

  let t =
    Table.create ~title:"overlay maintained under random-waypoint mobility"
      [
        ("epoch", Table.Right);
        ("range", Table.Right);
        ("edges", Table.Right);
        ("max deg", Table.Right);
        ("connected", Table.Left);
        ("energy stretch", Table.Right);
        ("msgs/node", Table.Right);
        ("churn", Table.Right);
      ]
  in
  let prev_edges = ref [] in
  for epoch = 0 to 9 do
    let pts = Pointset.Mobility.positions mobility in
    let range = 1.4 *. Topo.Udg.critical_range pts in
    let gstar = Topo.Udg.build ~range pts in
    let alg = Topo.Theta_alg.build ~theta ~range pts in
    let overlay = Topo.Theta_alg.overlay alg in
    let edges =
      Graph.fold_edges overlay ~init:[] ~f:(fun acc _ e -> (e.Graph.u, e.Graph.v) :: acc)
      |> List.sort compare
    in
    (* Churn: fraction of overlay edges that changed since the last epoch. *)
    let churn =
      if epoch = 0 then 0.
      else begin
        let changed =
          List.length (List.filter (fun e -> not (List.mem e !prev_edges)) edges)
          + List.length (List.filter (fun e -> not (List.mem e edges)) !prev_edges)
        in
        float_of_int changed /. float_of_int (max 1 (List.length edges))
      end
    in
    prev_edges := edges;
    let msgs_per_node =
      let m = Topo.Theta_alg.messages alg in
      float_of_int Topo.Theta_alg.(m.position + m.neighborhood + m.connection)
      /. float_of_int (Array.length pts)
    in
    Table.add_row t
      [
        string_of_int epoch;
        Printf.sprintf "%.3f" range;
        string_of_int (Graph.num_edges overlay);
        string_of_int (Graph.max_degree overlay);
        (if Graphs.Components.is_connected overlay then "yes" else "NO");
        Printf.sprintf "%.3f"
          (Graphs.Stretch.over_base_edges ~sub:overlay ~base:gstar
             ~cost:(Graphs.Cost.energy ~kappa:2.) ());
        Printf.sprintf "%.2f" msgs_per_node;
        Printf.sprintf "%.2f" churn;
      ];
    (* 50 mobility steps between epochs. *)
    Pointset.Mobility.run mobility 50
  done;
  Table.print t;
  print_newline ();
  Printf.printf
    "Each epoch rebuilds the overlay with three local broadcast rounds\n\
     (degree stays under the 4pi/theta = %d bound throughout), so topology\n\
     maintenance scales with density, not network size.\n\n"
    (Topo.Theta_alg.degree_bound ~theta);

  (* Route WHILE the responders move: twelve epochs of 800 steps, buffers
     carried across topology changes (the paper's dynamic adversarial
     setting).  Each epoch is one phase of the step kernel on that
     snapshot's overlay, activating one colour class of its conflict graph
     per step (an interference-free TDMA schedule). *)
  let mobility2 =
    Pointset.Mobility.create ~pause:5 ~speed_min:0.002 ~speed_max:0.01 (Prng.create 100)
      (Pointset.Generators.clusters ~num_clusters:4 ~spread:0.07 (Prng.create 100) 120)
  in
  let cost = Graphs.Cost.energy ~kappa:2. in
  let epochs =
    List.init 12 (fun i ->
        let snapshot = Pointset.Mobility.positions mobility2 in
        Pointset.Mobility.run mobility2 40;
        let range = 1.5 *. Topo.Udg.critical_range snapshot in
        let b = Pipeline.prepare ~delta:0.05 ~theta ~range snapshot in
        {
          Routing.Engine.graph = b.Pipeline.overlay;
          cost;
          activation = Rounds (Some b.Pipeline.conflict);
          steps = 800;
          epoch = Some i;
        })
  in
  (* Two sustained flows between cluster members. *)
  let inj_rng = Prng.create 101 in
  let flows = [| (3, 77); (45, 110) |] in
  let injections t =
    if t < 4800 && t mod 12 = 0 then [ flows.(Util.Prng.int inj_rng 2) ] else []
  in
  let params = Routing.Balancing.params ~threshold:1. ~gamma:1. ~capacity:200 in
  let stats =
    Routing.Engine.run ~who:"disaster_relief" ~params ~heights:Live ~absorb:Destination
      ~injections epochs
  in
  Printf.printf
    "routing across 12 moving epochs (%d steps): injected %d, delivered %d,\n\
     dropped %d, still buffered %d. The balancing gradient survives topology\n\
     churn because heights, not routes, carry the state; throughput is paced\n\
     by the TDMA colour schedule of each epoch's interference graph.\n"
    stats.Routing.Engine.steps stats.Routing.Engine.injected stats.Routing.Engine.delivered
    stats.Routing.Engine.dropped stats.Routing.Engine.remaining
