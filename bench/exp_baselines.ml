(* Experiment E11: the topology-comparison table (paper Section 1.2's
   qualitative claims made quantitative): ΘALG's overlay vs the Yao graph,
   Gabriel graph, relative neighborhood graph, restricted Delaunay graph and
   the Euclidean MST on a common deployment. *)

open Adhoc
open Common
module Graph = Graphs.Graph
module Conflict = Interference.Conflict
module Model = Interference.Model

let e11 () =
  header "E11: baseline comparison (512 uniform nodes, mean of 3 seeds)";
  let n = 512 in
  let names =
    [ "G*"; "theta-overlay"; "yao"; "cbtc"; "gabriel"; "rng"; "delaunay"; "knn-3"; "mst" ]
  in
  let acc = Hashtbl.create 8 in
  let record name field value =
    Hashtbl.replace acc (name, field)
      (value :: Option.value ~default:[] (Hashtbl.find_opt acc (name, field)))
  in
  (* Seeds fan out across the harness pool; each trial returns its
     measurements and the sequential replay below reproduces the exact
     accumulation order of the old per-seed loop. *)
  let trials =
    map_seeds
      (fun seed ->
      let rng = Util.Prng.create seed in
      let points = Pointset.Generators.uniform rng n in
      let range = 1.5 *. Topo.Udg.critical_range points in
      let gstar = Topo.Udg.build ~range points in
      let build name =
        let t0 = Unix.gettimeofday () in
        let g =
          match name with
          | "G*" -> gstar
          | "theta-overlay" ->
              Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta:theta_default ~range points)
          | "yao" -> Topo.Yao.graph ~theta:theta_default ~range points
          | "cbtc" -> (Topo.Cbtc.build ~alpha:(2. *. Float.pi /. 3.) ~range points).Topo.Cbtc.graph
          | "knn-3" -> Topo.Knn.build ~range ~k:3 points
          | "gabriel" -> Topo.Gabriel.build ~range points
          | "rng" -> Topo.Rng_graph.build ~range points
          | "delaunay" -> Topo.Delaunay.build ~range points
          | "mst" -> Topo.Euclidean_mst.build points
          | _ -> assert false
        in
        (g, Unix.gettimeofday () -. t0)
      in
      List.map
        (fun name ->
          let g, dt = build name in
          let m = Topo.Topo_metrics.measure ~name ~base:gstar g in
          let conflict = Conflict.build (Model.make ~delta:0.5) ~points g in
          ( name,
            [
              ("connected", if m.Topo.Topo_metrics.connected then 1. else 0.);
              ("edges", float_of_int m.Topo.Topo_metrics.edges);
              ("maxdeg", float_of_int m.Topo.Topo_metrics.max_degree);
              ("I", float_of_int (Conflict.interference_number conflict));
              ("estretch", m.Topo.Topo_metrics.energy_stretch);
              ("dstretch", m.Topo.Topo_metrics.distance_stretch);
              ("build_ms", dt *. 1000.);
            ] ))
        names)
      (seeds 3)
  in
  List.iter
    (List.iter (fun (name, fields) -> List.iter (fun (f, v) -> record name f v) fields))
    trials;
  let t =
    Table.create
      [
        ("topology", Table.Left);
        ("connected", Table.Left);
        ("edges", Table.Right);
        ("max deg", Table.Right);
        ("I", Table.Right);
        ("energy stretch", Table.Right);
        ("dist stretch", Table.Right);
        ("build ms", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      let get field = Stats.mean (Array.of_list (Hashtbl.find acc (name, field))) in
      Table.add_row t
        [
          name;
          (if get "connected" >= 1. then "yes" else "NO");
          Printf.sprintf "%.0f" (get "edges");
          Printf.sprintf "%.0f" (get "maxdeg");
          Printf.sprintf "%.0f" (get "I");
          fmt3 (get "estretch");
          fmt3 (get "dstretch");
          fmt2 (get "build_ms");
        ])
    names;
  Table.print t;
  print_endline
    "paper (Section 1.2): Gabriel/Delaunay have optimal energy paths but";
  print_endline
    "unbounded worst-case degree; the MST has unbounded stretch; only the";
  print_endline
    "theta overlay combines O(1) degree, O(1) energy-stretch and purely";
  print_endline "local construction."
