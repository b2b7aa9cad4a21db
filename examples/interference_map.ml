(* Interference map: how much spatial reuse does each topology allow?

   Builds the classical proximity-graph baselines next to ΘALG's overlay on
   the same deployment and compares edge count, degree, stretch and the
   interference number I — the quantity that caps achievable throughput at
   Ω(1/I) (paper Theorem 2.8).

   Run with:  dune exec examples/interference_map.exe *)

open Adhoc
module Prng = Util.Prng
module Graph = Graphs.Graph
module Table = Util.Table
module Conflict = Interference.Conflict
module Model = Interference.Model

let () =
  let rng = Prng.create 7 in
  let points = Pointset.Generators.uniform rng 256 in
  let range = 1.5 *. Topo.Udg.critical_range points in
  let delta = 0.5 in
  let model = Model.make ~delta in
  Printf.printf "256 uniform nodes, range %.3f, guard zone delta = %.1f\n\n" range delta;

  let gstar = Topo.Udg.build ~range points in
  let topologies =
    [
      ("G* (disk graph)", gstar);
      ( "theta overlay",
        Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) );
      ("Yao graph", Topo.Yao.graph ~theta:(Float.pi /. 6.) ~range points);
      ("Gabriel", Topo.Gabriel.build ~range points);
      ("RNG", Topo.Rng_graph.build ~range points);
      ("restricted Delaunay", Topo.Delaunay.build ~range points);
      ("Euclidean MST", Topo.Euclidean_mst.build points);
    ]
  in
  let t =
    Table.create ~title:"interference and quality by topology"
      [
        ("topology", Table.Left);
        ("edges", Table.Right);
        ("max deg", Table.Right);
        ("I", Table.Right);
        ("colors", Table.Right);
        ("energy stretch", Table.Right);
        ("dist stretch", Table.Right);
      ]
  in
  List.iter
    (fun (name, g) ->
      let conflict = Conflict.build model ~points g in
      let _, colors = Conflict.greedy_coloring conflict in
      Table.add_row t
        [
          name;
          string_of_int (Graph.num_edges g);
          string_of_int (Graph.max_degree g);
          string_of_int (Conflict.interference_number conflict);
          string_of_int colors;
          Printf.sprintf "%.3f"
            (Graphs.Stretch.over_base_edges ~sub:g ~base:gstar
               ~cost:(Graphs.Cost.energy ~kappa:2.) ());
          Printf.sprintf "%.3f"
            (Graphs.Stretch.over_base_edges ~sub:g ~base:gstar ~cost:Graphs.Cost.length ());
        ])
    topologies;
  Table.print t;
  print_newline ();
  print_endline
    "I bounds the throughput loss of local scheduling (Theorem 2.8: an\n\
     Omega(1/I) fraction of optimal); 'colors' is the length of the greedy\n\
     interference-free MAC schedule. Sparse overlays trade a constant-factor\n\
     stretch for an order-of-magnitude smaller I than the raw disk graph."
