open Adhoc_topo
module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Components = Adhoc_graph.Components
module Stretch = Adhoc_graph.Stretch
module Sector = Adhoc_geom.Sector
module Segment = Adhoc_geom.Segment
open Helpers

let theta_default = Float.pi /. 6.

(* A connected instance: random points with range = 2 x critical. *)
let instance seed =
  let points = points_of_seed ~min_n:4 ~max_n:40 seed in
  let range = 2. *. Udg.critical_range points in
  (points, range)

(* ------------------------------------------------------------------ *)
(* Udg                                                                 *)

let test_udg_matches_brute =
  qtest "disk graph edges = brute force" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create (seed + 17) in
      let points = points_of_seed seed in
      let range = Prng.range rng 0.05 1.2 in
      let g = Udg.build ~range points in
      let n = Array.length points in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let expected = Point.dist points.(u) points.(v) <= range in
          if Graph.mem_edge g u v <> expected then ok := false
        done
      done;
      !ok)

let test_critical_range_threshold =
  qtest "critical range is the connectivity threshold" ~count:60 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:3 seed in
      let r = Udg.critical_range points in
      Components.is_connected (Udg.build ~range:r points)
      && not (Components.is_connected (Udg.build ~range:(r *. 0.999) points)))

let test_udg_zero_range () =
  let points = [| Point.origin; Point.make 1. 0. |] in
  Alcotest.(check int) "no edges" 0 (Graph.num_edges (Udg.build ~range:0. points))

(* Three repeats of one point: their critical range is 0, and at
   distance 0 <= 0 they are pairwise adjacent. *)
let coincident = Array.make 3 (Point.make 0.5 0.5)

let test_udg_coincident_zero_range () =
  let range = Udg.critical_range coincident in
  check_close "critical range" 0. range;
  let gstar = Udg.build ~range coincident in
  Alcotest.(check int) "complete" 3 (Graph.num_edges gstar);
  Alcotest.(check bool) "connected" true (Components.is_connected gstar)

let test_udg_infinite_range () =
  let points = [| Point.origin; Point.make 1. 0.; Point.make 0. 7. |] in
  Alcotest.(check int) "complete" 3 (Graph.num_edges (Udg.build ~range:infinity points))

(* ------------------------------------------------------------------ *)
(* Yao                                                                 *)

let test_yao_selection_is_nearest_per_sector =
  qtest "N(u) = nearest node per sector" ~count:100 seed_gen (fun seed ->
      let points, range = instance seed in
      let n = Array.length points in
      let sel = Yao.selections ~theta:theta_default ~range points in
      let ok = ref true in
      for u = 0 to n - 1 do
        (* Brute force: nearest in-range node per sector. *)
        let sectors = Sector.count theta_default in
        let best = Array.make sectors (-1) in
        for v = 0 to n - 1 do
          if v <> u && Point.dist points.(u) points.(v) <= range then begin
            let s = Sector.index ~theta:theta_default ~apex:points.(u) points.(v) in
            if best.(s) = -1 || Yao.closer points u v best.(s) then best.(s) <- v
          end
        done;
        let expected =
          Array.to_list best |> List.filter (fun v -> v >= 0) |> List.sort_uniq compare
        in
        if Array.to_list sel.(u) <> expected then ok := false
      done;
      !ok)

let test_yao_out_degree_bound =
  qtest "selection count <= sector count" ~count:100 seed_gen (fun seed ->
      let points, range = instance seed in
      let sel = Yao.selections ~theta:theta_default ~range points in
      Array.for_all (fun vs -> Array.length vs <= Sector.count theta_default) sel)

let test_yao_graph_spanner =
  qtest "Yao graph connected with bounded stretch" ~count:60 seed_gen (fun seed ->
      let points, range = instance seed in
      let gstar = Udg.build ~range points in
      let yao = Yao.graph ~theta:theta_default ~range points in
      Components.is_connected yao
      && is_subgraph yao gstar
      && Stretch.over_base_edges ~sub:yao ~base:gstar ~cost:Cost.length () < 3.)


let test_yao_analytic_spanner_bound =
  qtest "Yao graph within the textbook spanner constant" ~count:30 seed_gen (fun seed ->
      (* For sectors of angle theta < pi/3, the Yao graph is a t-spanner
         with t = 1 / (1 - 2 sin(theta/2)). *)
      let points = points_of_seed ~min_n:5 ~max_n:30 seed in
      let theta = Float.pi /. 6. in
      let yao = Yao.graph ~theta ~range:infinity points in
      let bound = 1. /. (1. -. (2. *. sin (theta /. 2.))) in
      Stretch.vs_euclidean ~sub:yao ~points () <= bound +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Theta_alg (Lemma 2.1, Theorems 2.2 / 2.7)                           *)

let test_theta_subgraph_chain =
  qtest "overlay ⊆ Yao graph ⊆ G*" ~count:100 seed_gen (fun seed ->
      let points, range = instance seed in
      let gstar = Udg.build ~range points in
      let yao = Yao.graph ~theta:theta_default ~range points in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      let ov = Theta_alg.overlay alg in
      is_subgraph ov yao && is_subgraph yao gstar)

let test_theta_connected =
  qtest "Lemma 2.1: overlay connected" ~count:100 seed_gen (fun seed ->
      let points, range = instance seed in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      Components.is_connected (Theta_alg.overlay alg))

let test_theta_degree_bound =
  qtest "Lemma 2.1: degree <= 4pi/theta" ~count:100 seed_gen (fun seed ->
      let points, range = instance seed in
      let ok = ref true in
      List.iter
        (fun theta ->
          let alg = Theta_alg.build ~theta ~range points in
          if Graph.max_degree (Theta_alg.overlay alg) > Theta_alg.degree_bound ~theta then
            ok := false)
        [ Float.pi /. 3.; Float.pi /. 4.; Float.pi /. 6. ];
      !ok)

let test_theta_energy_stretch_bounded =
  qtest "Theorem 2.2: O(1) energy-stretch (empirical bound)" ~count:60 seed_gen (fun seed ->
      let points, range = instance seed in
      let gstar = Udg.build ~range points in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      let ov = Theta_alg.overlay alg in
      Stretch.over_base_edges ~sub:ov ~base:gstar ~cost:(Cost.energy ~kappa:2.) () < 4.
      && Stretch.over_base_edges ~sub:ov ~base:gstar ~cost:(Cost.energy ~kappa:4.) () < 6.)

let test_theta_distance_stretch_civilized =
  qtest "Theorem 2.7: O(1) distance-stretch on civilized sets" ~count:30 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let points = Adhoc_pointset.Poisson_disk.sample ~min_dist:0.08 rng in
      QCheck2.assume (Array.length points > 5);
      let range = 2. *. Udg.critical_range points in
      let gstar = Udg.build ~range points in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      Stretch.over_base_edges ~sub:(Theta_alg.overlay alg) ~base:gstar ~cost:Cost.length () < 4.)

let test_theta_admitted_are_selectors =
  qtest "phase 2 admits only phase-1 selectors" ~count:60 seed_gen (fun seed ->
      let points, range = instance seed in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      let ok = ref true in
      Array.iteri
        (fun u admitted ->
          List.iter
            (fun (v, sector) ->
              if not (Theta_alg.in_yao alg v u) then ok := false;
              if Sector.index ~theta:theta_default ~apex:points.(u) points.(v) <> sector then
                ok := false)
            admitted)
        alg.Theta_alg.admitted;
      !ok)

let test_theta_chain_coincident () =
  let range = Udg.critical_range coincident in
  let gstar = Udg.build ~range coincident in
  let yao = Yao.graph ~theta:theta_default ~range coincident in
  let ov = Theta_alg.overlay (Theta_alg.build ~theta:theta_default ~range coincident) in
  Alcotest.(check bool) "overlay ⊆ Yao graph" true (is_subgraph ov yao);
  Alcotest.(check bool) "Yao graph ⊆ G*" true (is_subgraph yao gstar)

let test_theta_empty_and_tiny () =
  let alg = Theta_alg.build ~theta:theta_default ~range:1. [| Point.origin |] in
  Alcotest.(check int) "singleton" 0 (Graph.num_edges (Theta_alg.overlay alg));
  let two = [| Point.origin; Point.make 0.5 0. |] in
  let alg2 = Theta_alg.build ~theta:theta_default ~range:1. two in
  Alcotest.(check int) "pair connected" 1 (Graph.num_edges (Theta_alg.overlay alg2))

let test_degree_bound_value () =
  Alcotest.(check int) "4pi/theta at pi/6" 24 (Theta_alg.degree_bound ~theta:(Float.pi /. 6.));
  Alcotest.(check int) "4pi/theta at pi/3" 12 (Theta_alg.degree_bound ~theta:(Float.pi /. 3.))

(* ------------------------------------------------------------------ *)
(* The three rounds of Section 2.1, counted on the build                *)

let test_protocol_message_counts =
  qtest "message counts consistent" ~count:30 seed_gen (fun seed ->
      let points, range = instance seed in
      let n = Array.length points in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      let m = Theta_alg.messages alg in
      let edges = Graph.num_edges (Theta_alg.overlay alg) in
      (* An edge is admitted by one endpoint or both, and only a selector
         is admitted. *)
      m.Theta_alg.position = n
      && m.Theta_alg.neighborhood <= n * Sector.count theta_default
      && m.Theta_alg.connection >= edges
      && m.Theta_alg.connection <= 2 * edges
      && m.Theta_alg.connection <= m.Theta_alg.neighborhood)

(* ------------------------------------------------------------------ *)
(* Proximity-graph baselines                                           *)

let test_proximity_chain =
  qtest "MST ⊆ RNG ⊆ Gabriel ⊆ Delaunay" ~count:80 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:4 ~max_n:30 seed in
      let mst = Reference_mst.of_points points in
      let rng_g = Rng_graph.build points in
      let gg = Gabriel.build points in
      let dt = Delaunay.build points in
      is_subgraph mst rng_g && is_subgraph rng_g gg && is_subgraph gg dt)

let test_gabriel_witness_property =
  qtest "Gabriel edges have empty diametral disks" ~count:60 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:4 ~max_n:25 seed in
      let gg = Gabriel.build points in
      let n = Array.length points in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let disk = Adhoc_geom.Circle.diametral points.(u) points.(v) in
          let witness = ref false in
          for w = 0 to n - 1 do
            if w <> u && w <> v && Adhoc_geom.Circle.contains disk points.(w) then witness := true
          done;
          if Graph.mem_edge gg u v = !witness then ok := false
        done
      done;
      !ok)

let test_rng_lune_property =
  qtest "RNG edges have empty lunes" ~count:60 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:4 ~max_n:25 seed in
      let g = Rng_graph.build points in
      let n = Array.length points in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let d = Point.dist points.(u) points.(v) in
          let witness = ref false in
          for w = 0 to n - 1 do
            if
              w <> u && w <> v
              && Point.dist points.(u) points.(w) < d
              && Point.dist points.(v) points.(w) < d
            then witness := true
          done;
          if Graph.mem_edge g u v = !witness then ok := false
        done
      done;
      !ok)

let test_delaunay_empty_circumcircles =
  qtest "Delaunay triangles have empty circumcircles" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:4 ~max_n:20 seed in
      let tris = Delaunay.triangles points in
      List.for_all
        (fun (a, b, c) ->
          let ok = ref true in
          Array.iteri
            (fun i p ->
              if i <> a && i <> b && i <> c then begin
                if Adhoc_geom.Circle.in_circumcircle points.(a) points.(b) points.(c) p then
                  ok := false
              end)
            points;
          !ok)
        tris)

let test_delaunay_connected =
  qtest "Delaunay graph connected" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:3 ~max_n:30 seed in
      Components.is_connected (Delaunay.build points))

(* A triangulation of n points in general position, h of them on the
   hull, has 2n - h - 2 triangles; fewer means part of the hull is left
   uncovered. *)
let test_delaunay_covers_hull =
  qtest "Delaunay triangulates the whole hull" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:3 ~max_n:30 seed in
      let n = Array.length points and h = List.length (Adhoc_geom.Hull.convex points) in
      List.length (Delaunay.triangles points) = (2 * n) - h - 2)

(* Three nearly collinear points ([points_of_seed ~min_n:3 ~max_n:30]
   seeds 7789 and 9083): circumradius 223 and 150, so the circumcircle
   reaches far beyond the unit square, yet the one triangle must exist. *)
let test_delaunay_thin_triangle points () =
  Alcotest.(check (list (triple int int int))) "one triangle" [ (0, 1, 2) ]
    (Delaunay.triangles points);
  Alcotest.(check int) "three edges" 3 (Graph.num_edges (Delaunay.build points))

let thin_7789 =
  [|
    Point.make 0x1.fdb41c5695c04p-2 0x1.3b0f224ea982p-3;
    Point.make 0x1.7268ea6fc047ep-1 0x1.cd263639ea94p-5;
    Point.make 0x1.cf410643551bep-2 0x1.63483f3b2a72p-3;
  |]

let thin_9083 =
  [|
    Point.make 0x1.da93124afc78p-7 0x1.99a63d6fb08c4p-2;
    Point.make 0x1.aa89f6e02468dp-1 0x1.bef6ddc362644p-2;
    Point.make 0x1.93ac2534b86e4p-2 0x1.aa62ffd547a08p-2;
  |]

(* The list-scan Bowyer–Watson that [Delaunay.triangles] replaced: every
   insertion tests every live triangle.  Kept as the reference the
   cavity-search version must reproduce, order included. *)
module Reference_delaunay = struct
  open Adhoc_geom

  type tri = { a : int; b : int; c : int }

  let tri_edges t = [ (t.a, t.b); (t.b, t.c); (t.a, t.c) ]

  let norm_edge (u, v) = if u < v then (u, v) else (v, u)

  let triangles points =
    let n = Array.length points in
    let seen = Hashtbl.create n in
    let keep =
      Array.to_list
        (Array.mapi
           (fun i (p : Point.t) ->
             let key = (p.Point.x, p.Point.y) in
             if Hashtbl.mem seen key then None
             else begin
               Hashtbl.add seen key ();
               Some i
             end)
           points)
    in
    let keep = List.filter_map Fun.id keep in
    let side u v p = Point.(cross (points.(v) -@ points.(u)) (p -@ points.(u))) in
    let seed = function
      | i0 :: i1 :: others ->
          let rec find skipped = function
            | [] -> None
            | k :: rest when not (Float.equal (side i0 i1 points.(k)) 0.) ->
                Some (i0, i1, k, List.rev_append skipped rest)
            | k :: rest -> find (k :: skipped) rest
          in
          find [] others
      | _ -> None
    in
    match seed keep with
    | None -> []
    | Some (i0, i1, i2, rest) ->
        let ghost = n in
        let inner = Point.(scale (1. /. 3.) (points.(i0) +@ points.(i1) +@ points.(i2))) in
        let beyond t p =
          let s = side t.a t.b p in
          if Float.equal s 0. then Point.(dot (points.(t.a) -@ p) (points.(t.b) -@ p)) < 0.
          else Bool.equal (s > 0.) (side t.a t.b inner < 0.)
        in
        let tris = ref [ { a = i0; b = i1; c = i2 } ] in
        let ghosts =
          ref
            [
              { a = i0; b = i1; c = ghost };
              { a = i1; b = i2; c = ghost };
              { a = i0; b = i2; c = ghost };
            ]
        in
        List.iter
          (fun i ->
            let p = points.(i) in
            let bad, good =
              List.partition
                (fun t -> Circle.in_circumcircle points.(t.a) points.(t.b) points.(t.c) p)
                !tris
            in
            let bad_ghosts, good_ghosts = List.partition (fun t -> beyond t p) !ghosts in
            let tally = Hashtbl.create 16 in
            List.iter
              (fun t ->
                List.iter
                  (fun e ->
                    let e = norm_edge e in
                    Hashtbl.replace tally e
                      (1 + Option.value ~default:0 (Hashtbl.find_opt tally e)))
                  (tri_edges t))
              (bad_ghosts @ bad);
            let fresh, fresh_ghosts =
              Adhoc_util.Det.fold_sorted
                (fun (u, v) count (fresh, fresh_ghosts) ->
                  if count <> 1 then (fresh, fresh_ghosts)
                  else if v = ghost then (fresh, { a = u; b = i; c = ghost } :: fresh_ghosts)
                  else ({ a = u; b = v; c = i } :: fresh, fresh_ghosts))
                tally ([], [])
            in
            tris := fresh @ good;
            ghosts := fresh_ghosts @ good_ghosts)
          rest;
        List.map
          (fun t ->
            match List.sort Int.compare [ t.a; t.b; t.c ] with
            | [ a; b; c ] -> (a, b, c)
            | _ -> assert false)
          !tris
end

module Generators = Adhoc_pointset.Generators

let with_minor_words f =
  let module Gcstat = Adhoc_obs.Gcstat in
  let before = Gcstat.read () in
  let r = f () in
  let after = Gcstat.read () in
  (r, (Gcstat.delta ~before ~after).Gcstat.minor_words)

(* Families with the degeneracies a triangulation has to survive: an
   exact grid is full of cocircular quadruples and collinear rows, and
   clusters clamped to the box repeat its corners and line its sides. *)
let families =
  [|
    (fun rng n -> Generators.uniform rng n);
    (fun rng n -> Generators.jittered_grid ~jitter:0. rng n);
    (fun rng n -> Generators.jittered_grid ~jitter:0.1 rng n);
    (fun rng n -> Generators.clusters ~num_clusters:3 ~spread:0.3 rng n);
    (fun rng n -> Generators.ring ~width:0.15 rng n);
    (fun rng n -> Generators.two_scale ~ratio:0.02 rng n);
  |]

let test_delaunay_matches_reference =
  qtest "Delaunay = list-scan reference, order included" ~count:300 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 298 in
      let points = families.(seed mod Array.length families) rng n in
      Delaunay.triangles points = Reference_delaunay.triangles points)

(* Coordinates from 1e-300 to 1e300: squares overflow, so every
   triangle's circumcircle "contains" the fourth point and the cavity
   has no rim.  The list scan then drops every triangle. *)
let test_delaunay_no_rim () =
  let points =
    [|
      Point.make 0x1.0d1bdeba87689p+996 0x1.51881fc7c5833p+993;
      Point.make 0x1.e676cf95f66a1p-1 0x1.ef06cd42449b8p-4;
      Point.make 0x1.230de0540af5ep-997 0x1.d8d509ef0521dp-1000;
      Point.make 0x1.f2b68d2366ef5p-535 0x1.5c966792c2d89p-532;
      Point.make 0x1.51d79ca9bba6dp+514 0x1.8232e89772c21p+513;
    |]
  in
  Alcotest.(check (list (triple int int int)))
    "same list" (Reference_delaunay.triangles points) (Delaunay.triangles points)

(* (-0, 0) repeats (0, 0): the filter drops it and keeps index 0, the
   first copy. *)
let test_delaunay_signed_zero_repeat () =
  let points =
    [| Point.make 0. 0.; Point.make 1. 0.; Point.make 0. 1.; Point.make (-0.) 0. |]
  in
  Alcotest.(check (list (triple int int int)))
    "first copy kept" [ (0, 1, 2) ] (Delaunay.triangles points)

(* s1-flows' input: the e2e benchmark's jittered grid at n = 1024, seed 1. *)
let test_delaunay_matches_reference_s1 () =
  let points = Generators.jittered_grid ~jitter:0.1 (Prng.create 1) 1024 in
  Alcotest.(check (list (triple int int int)))
    "same list" (Reference_delaunay.triangles points) (Delaunay.triangles points)

(* build-4k's input (n = 4096, seed 1).  Testing every live triangle on
   every insertion allocated 242M minor words here; the walk and the
   cavity search allocated 1.44M with boxed predicate temporaries, 136k
   without, and 99k with the duplicate filter keyed by the points
   themselves instead of boxed (x, y) tuples. *)
let test_delaunay_allocation () =
  let points = Generators.jittered_grid ~jitter:0.1 (Prng.create 1) 4096 in
  let tris, words = with_minor_words (fun () -> Delaunay.triangles points) in
  Alcotest.(check int) "triangles" 8165 (List.length tris);
  if words > 1.2e5 then Alcotest.failf "Delaunay.triangles allocated %.0f minor words" words

let test_gabriel_range_restriction () =
  let points = [| Point.origin; Point.make 1. 0.; Point.make 5. 0. |] in
  let g = Gabriel.build ~range:2. points in
  Alcotest.(check bool) "short edge kept" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "long edge cut" false (Graph.mem_edge g 1 2)

(* ------------------------------------------------------------------ *)
(* Topo_metrics                                                        *)

let test_metrics_fields () =
  let points, range = instance 5 in
  let gstar = Udg.build ~range points in
  let alg = Theta_alg.build ~theta:theta_default ~range points in
  let m = Topo_metrics.measure ~name:"theta" ~base:gstar (Theta_alg.overlay alg) in
  Alcotest.(check string) "name" "theta" m.Topo_metrics.name;
  Alcotest.(check bool) "connected" true m.Topo_metrics.connected;
  Alcotest.(check bool) "stretch >= 1" true (m.Topo_metrics.energy_stretch >= 1.);
  Alcotest.(check int) "row width" (List.length Topo_metrics.header)
    (List.length (Topo_metrics.to_row m))


(* ------------------------------------------------------------------ *)
(* Extensions: kNN, beta-skeletons, theta-graph, power assignment      *)

let test_knn_intro_claim =
  qtest "kNN can disconnect; theta overlay never does" ~count:40 seed_gen (fun seed ->
      let points, range = instance seed in
      (* k = 1 must give a forest with max degree possibly large; the graph
         need not be connected (the paper's introduction claim). *)
      let g1 = Knn.build ~k:1 points in
      let alg = Theta_alg.build ~theta:theta_default ~range points in
      Graph.num_edges g1 >= (Array.length points / 2)
      && Components.is_connected (Theta_alg.overlay alg))

let test_knn_edges_are_near =
  qtest "kNN edges respect k-nearest semantics" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:5 ~max_n:25 seed in
      let k = 2 in
      let g = Knn.build ~k points in
      let n = Array.length points in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if v <> u then begin
            (* If v within the k nearest of u, edge must exist. *)
            let closer_count =
              let c = ref 0 in
              for w = 0 to n - 1 do
                if w <> u && w <> v && Yao.closer points u w v then incr c
              done;
              !c
            in
            if closer_count < k && not (Graph.mem_edge g u v) then ok := false
          end
        done
      done;
      !ok)

let test_knn_min_connecting =
  qtest "min_connecting_k yields a connected graph, k-1 does not" ~count:30 seed_gen
    (fun seed ->
      let points = points_of_seed ~min_n:6 ~max_n:30 seed in
      match Knn.min_connecting_k points with
      | None -> false
      | Some k ->
          Components.is_connected (Knn.build ~k points)
          && (k = 1 || not (Components.is_connected (Knn.build ~k:(k - 1) points))))

(* Repeated points, which the triangulation drops, and collinear sets,
   which have no triangle: a uniform or an exactly collinear base set,
   then repeats of some of its points. *)
let degenerate_of_seed seed =
  let rng = Prng.create seed in
  let base =
    if seed mod 2 = 0 then points_of_seed ~min_n:3 ~max_n:30 seed
    else
      Array.init
        (2 + Prng.int rng 30)
        (fun _ ->
          let t = Prng.uniform rng in
          Point.make t (0.5 *. t))
  in
  let m = Array.length base in
  Array.append base (Array.init (1 + Prng.int rng 10) (fun _ -> base.(Prng.int rng m)))

let test_euclidean_mst_exact =
  qtest "Delaunay-restricted MST = exact MST" ~count:120 seed_gen (fun seed ->
      let points =
        match seed mod 4 with
        | 0 -> degenerate_of_seed (seed / 4)
        | 1 ->
            let rng = Prng.create seed in
            families.(seed / 4 mod Array.length families) rng (3 + Prng.int rng 118)
        | _ -> points_of_seed ~min_n:3 ~max_n:60 seed
      in
      let fast = Euclidean_mst.build points in
      let exact = Reference_mst.of_points points in
      let longest g = Graph.fold_edges g ~init:0. ~f:(fun acc _ e -> Float.max acc e.Graph.len) in
      (* Same total weight (edge sets can differ only on exact ties), and
         the same longest edge to the bit: every MST has it. *)
      close ~eps:1e-9 (Graph.total_length fast) (Graph.total_length exact)
      && Float.equal (Euclidean_mst.longest_edge points) (longest exact)
      && Graph.num_edges fast = Graph.num_edges exact
      && Components.is_connected fast)

(* Every point set that a runtime caller hands Euclidean_mst.build, which
   replaced the all-pairs oracle there: topology's four --dist sets at
   seed 1 (n = 200 and 300), E11's three seeds at n = 512, B1's fixture
   and interference_map's set.  The tree must be the oracle's bit for
   bit: edge ids, ordered endpoints and lengths. *)
let test_euclidean_mst_runtime_inputs () =
  let uniform seed n = Generators.uniform (Prng.create seed) n in
  let topology n =
    List.map
      (fun (dist, gen) -> (Printf.sprintf "topology --dist %s -n %d" dist n, gen (Prng.create 1) n))
      [
        ("uniform", fun rng n -> Generators.uniform rng n);
        ("grid", fun rng n -> Generators.jittered_grid ~jitter:0.3 rng n);
        ("clusters", fun rng n -> Generators.clusters ~num_clusters:5 ~spread:0.05 rng n);
        ("ring", fun rng n -> Generators.ring ~width:0.25 rng n);
      ]
  in
  List.iter
    (fun (name, points) ->
      if graph_digest (Euclidean_mst.build points) <> graph_digest (Reference_mst.of_points points)
      then Alcotest.failf "%s: not the all-pairs MST" name)
    (topology 200 @ topology 300
    @ List.map (fun seed -> (Printf.sprintf "E11 seed %d" seed, uniform seed 512)) [ 1000; 1017; 1034 ]
    @ [ ("B1 fixture", uniform 2024 256); ("interference_map", uniform 7 256) ])

(* One repeated point used to send the MST to an all-pairs fallback,
   which alone allocated 7.7M minor words at n = 1025; the Delaunay path
   allocated about 0.49M with boxed (u, v, length) candidates, and about
   0.08M on flat arrays. *)
let test_euclidean_mst_repeat_allocation () =
  let grid = Generators.jittered_grid ~jitter:0.1 (Prng.create 1) 1024 in
  let points = Array.append grid [| grid.(500) |] in
  let r, words = with_minor_words (fun () -> Udg.critical_range points) in
  check_close "range" (Udg.critical_range grid) r;
  if words > 4e5 then Alcotest.failf "critical_range allocated %.0f minor words" words

(* Bitwise pins at n = 16384, seed 1, where the O(n²) oracle is out of
   reach: uniform, clustered, an exact grid (cocircular quadruples
   everywhere) and the jittered grid e2e runs on. *)
let test_critical_range_pinned () =
  List.iter
    (fun (name, gen, expected) ->
      let r = Udg.critical_range (gen (Prng.create 1) 16384) in
      if not (Float.equal r expected) then Alcotest.failf "%s: %h, pinned %h" name r expected)
    [
      ("uniform", (fun rng n -> Generators.uniform rng n), 0x1.f317dcc6c702fp-7);
      ( "clusters",
        (fun rng n -> Generators.clusters ~num_clusters:5 ~spread:0.05 rng n),
        0x1.2b70b6ee47147p-3 );
      ("exact grid", (fun rng n -> Generators.jittered_grid ~jitter:0. rng n), 0x1p-7);
      ( "jittered grid",
        (fun rng n -> Generators.jittered_grid ~jitter:0.1 rng n),
        0x1.1d28ab5dd42a1p-7 );
    ]

let test_euclidean_mst_tiny () =
  let two = [| Point.origin; Point.make 1. 0. |] in
  check_close "pair" 1. (Euclidean_mst.longest_edge two);
  check_close "singleton" 0. (Euclidean_mst.longest_edge [| Point.origin |])

(* ------------------------------------------------------------------ *)
(* Planarity / CBTC                                                    *)

(* All pairs of edge ids whose segments properly cross: each segment's
   endpoints lie strictly on opposite sides of the other's line.  Edges
   sharing an endpoint never count.  O(m²). *)
let properly_cross a b c d =
  let open Segment in
  orientation a b c * orientation a b d < 0 && orientation c d a * orientation c d b < 0

let crossings points g =
  let m = Graph.num_edges g in
  let acc = ref [] in
  for e1 = 0 to m - 1 do
    let a, b = Graph.endpoints g e1 in
    for e2 = e1 + 1 to m - 1 do
      let c, d = Graph.endpoints g e2 in
      if
        a <> c && a <> d && b <> c && b <> d
        && properly_cross points.(a) points.(b) points.(c) points.(d)
      then acc := (e1, e2) :: !acc
    done
  done;
  List.rev !acc

let is_planar_embedding points g = crossings points g = []

let test_gabriel_rng_planar =
  qtest "Gabriel and RNG embeddings are planar" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:5 ~max_n:30 seed in
      is_planar_embedding points (Gabriel.build points)
      && is_planar_embedding points (Rng_graph.build points))

let test_delaunay_planar =
  qtest "Delaunay triangulation is planar" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:5 ~max_n:25 seed in
      is_planar_embedding points (Delaunay.build points))

let test_crossings_detected () =
  (* Two crossing diagonals of a square. *)
  let points = [| Point.make 0. 0.; Point.make 1. 1.; Point.make 1. 0.; Point.make 0. 1. |] in
  let g = Graph.geometric points [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "crossing found" true (crossings points g = [ (0, 1) ]);
  Alcotest.(check bool) "not planar" false (is_planar_embedding points g)

let test_cbtc_preserves_connectivity =
  qtest "CBTC(2pi/3) preserves connectivity" ~count:40 seed_gen (fun seed ->
      let points, range = instance seed in
      let c = Cbtc.build ~alpha:(2. *. Float.pi /. 3.) ~range points in
      Components.is_connected (Udg.build ~range points)
      = Components.is_connected c.Cbtc.graph)

let test_cbtc_radii_within_range =
  qtest "CBTC radii bounded by the max range" ~count:40 seed_gen (fun seed ->
      let points, range = instance seed in
      let c = Cbtc.build ~alpha:(2. *. Float.pi /. 3.) ~range points in
      Array.for_all (fun r -> r <= range +. 1e-12) c.Cbtc.radii
      && is_subgraph c.Cbtc.graph c.Cbtc.asymmetric)

let test_cbtc_coverage_condition =
  qtest "chosen radius satisfies the cone condition (or is max power)" ~count:30 seed_gen
    (fun seed ->
      let points, range = instance seed in
      let alpha = 2. *. Float.pi /. 3. in
      let c = Cbtc.build ~alpha ~range points in
      let ok = ref true in
      Array.iteri
        (fun u r ->
          if r < range -. 1e-12 then begin
            if not (Reference_cbtc.coverage_ok ~alpha points u r) then ok := false
          end)
        c.Cbtc.radii;
      !ok)

let test_cbtc_alpha_monotone () =
  let points = points_of_seed ~min_n:20 ~max_n:40 7 in
  let range = 2. *. Udg.critical_range points in
  let small = Cbtc.build ~alpha:(Float.pi /. 2.) ~range points in
  let large = Cbtc.build ~alpha:(3. *. Float.pi /. 2.) ~range points in
  (* A stricter (smaller) cone angle needs at least as much power. *)
  Array.iteri
    (fun u r ->
      if r > small.Cbtc.radii.(u) +. 1e-9 then
        Alcotest.failf "node %d: larger alpha chose more power" u)
    large.Cbtc.radii


let test_maintenance_matches_rebuild =
  qtest "incremental repair = full rebuild" ~count:25 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let points = points_of_seed ~min_n:10 ~max_n:50 seed in
      let n = Array.length points in
      let range = 1.5 *. Udg.critical_range points in
      let m = Maintenance.create ~theta:theta_default ~range points in
      let ok = ref true in
      for _ = 1 to 4 do
        let i = Prng.int rng n in
        Maintenance.move m i (Point.make (Prng.uniform rng) (Prng.uniform rng));
        let full =
          Theta_alg.overlay (Theta_alg.build ~theta:theta_default ~range (Maintenance.points m))
        in
        (* Bit for bit, edge ids included: ids follow the admitted lists'
           order. *)
        if graph_digest full <> graph_digest (Maintenance.overlay m) then ok := false
      done;
      !ok)

let test_maintenance_locality () =
  let rng = Prng.create 6 in
  let points = Adhoc_pointset.Generators.uniform rng 400 in
  let range = 1.3 *. Udg.critical_range points in
  let m = Maintenance.create ~theta:theta_default ~range points in
  (* A tiny nudge of one node must not touch most of the network. *)
  let p = (Maintenance.points m).(7) in
  Maintenance.move m 7 (Point.make (p.Point.x +. (0.1 *. range)) p.Point.y);
  Alcotest.(check bool) "local repair" true (Maintenance.last_affected m < 200);
  Alcotest.(check bool) "some repair" true (Maintenance.last_affected m > 0)

let test_maintenance_bounds () =
  let m = Maintenance.create ~theta:theta_default ~range:1. [| Point.origin; Point.make 0.5 0. |] in
  Alcotest.check_raises "out of range" (Invalid_argument "Maintenance.move: node out of range")
    (fun () -> Maintenance.move m 5 Point.origin)

(* ------------------------------------------------------------------ *)
(* Degenerate point sets: every construction must be total for n ≤ 2.  *)

let test_degenerate_totality () =
  let theta = theta_default in
  let sets =
    [ ("n=0", [||]); ("n=1", [| Point.make 0.5 0.5 |]);
      ("n=2", [| Point.make 0.25 0.5; Point.make 0.75 0.5 |]) ]
  in
  List.iter
    (fun (tag, points) ->
      let n = Array.length points in
      let check name g =
        Alcotest.(check int) (tag ^ " " ^ name ^ " nodes") n (Graph.n g);
        Alcotest.(check bool)
          (tag ^ " " ^ name ^ " edge bound")
          true
          (Graph.num_edges g <= n * (n - 1) / 2)
      in
      check "udg" (Udg.build ~range:1. points);
      check "udg zero range" (Udg.build ~range:0. points);
      check "yao" (Yao.graph ~theta ~range:1. points);
      check "theta-alg" (Theta_alg.overlay (Theta_alg.build ~theta ~range:1. points));
      check "knn" (Knn.build ~k:2 points);
      check "gabriel" (Gabriel.build points);
      check "rng" (Rng_graph.build points);
      check "delaunay" (Delaunay.build points);
      check "euclidean-mst" (Euclidean_mst.build points);
      check "cbtc" (Cbtc.build ~alpha:(2. *. Float.pi /. 3.) ~range:1. points).Cbtc.graph)
    sets

(* NaN and +inf pass a [theta <= 0.] guard and leave a sector count
   <= 0 behind it; every entry point rejects them with its own message. *)
let test_nonfinite_theta () =
  let points = [| Point.make 0.25 0.5; Point.make 0.75 0.5 |] in
  List.iter
    (fun theta ->
      let rejects msg f =
        Alcotest.check_raises (Printf.sprintf "theta %g: %s" theta msg) (Invalid_argument msg) f
      in
      rejects "Sector.count: theta must be positive and finite" (fun () ->
          ignore (Sector.count theta));
      rejects "Yao.selections: theta must be positive and finite" (fun () ->
          ignore (Yao.selections ~theta ~range:1. points));
      rejects "Theta_alg.build: bad theta" (fun () ->
          ignore (Theta_alg.build ~theta ~range:1. points)))
    [ Float.nan; Float.infinity ]

let () =
  Alcotest.run "topo"
    [
      ( "udg",
        [
          test_udg_matches_brute;
          test_critical_range_threshold;
          case "zero range" test_udg_zero_range;
          case "coincident nodes at range 0" test_udg_coincident_zero_range;
          case "infinite range" test_udg_infinite_range;
        ] );
      ( "yao",
        [
          test_yao_selection_is_nearest_per_sector;
          test_yao_out_degree_bound;
          test_yao_graph_spanner;
          test_yao_analytic_spanner_bound;
        ] );
      ( "theta_alg",
        [
          test_theta_subgraph_chain;
          test_theta_connected;
          test_theta_degree_bound;
          test_theta_energy_stretch_bounded;
          test_theta_distance_stretch_civilized;
          test_theta_admitted_are_selectors;
          case "tiny instances" test_theta_empty_and_tiny;
          case "chain on coincident nodes at range 0" test_theta_chain_coincident;
          case "degree bound values" test_degree_bound_value;
          case "non-finite theta rejected" test_nonfinite_theta;
        ] );
      ("protocol", [ test_protocol_message_counts ]);
      ( "proximity",
        [
          test_proximity_chain;
          test_gabriel_witness_property;
          test_rng_lune_property;
          test_delaunay_empty_circumcircles;
          test_delaunay_connected;
          test_delaunay_covers_hull;
          case "Delaunay thin triangle (seed 7789)" (test_delaunay_thin_triangle thin_7789);
          case "Delaunay thin triangle (seed 9083)" (test_delaunay_thin_triangle thin_9083);
          test_delaunay_matches_reference;
          case "Delaunay = reference on s1-flows' input" test_delaunay_matches_reference_s1;
          case "Delaunay = reference when a cavity has no rim" test_delaunay_no_rim;
          case "Delaunay drops (-0, 0) after (0, 0)" test_delaunay_signed_zero_repeat;
          case "Delaunay allocation on build-4k's input" test_delaunay_allocation;
          case "gabriel range" test_gabriel_range_restriction;
        ] );
      ("metrics", [ case "fields" test_metrics_fields ]);
      ( "knn",
        [
          test_knn_intro_claim;
          test_knn_edges_are_near;
          test_knn_min_connecting;
        ] );
      ( "euclidean_mst",
        [
          test_euclidean_mst_exact;
          case "runtime inputs: the all-pairs tree" test_euclidean_mst_runtime_inputs;
          case "tiny" test_euclidean_mst_tiny;
          case "repeated point: no all-pairs path" test_euclidean_mst_repeat_allocation;
          case "critical range pinned at n = 16384" test_critical_range_pinned;
        ] );
      ( "planarity",
        [
          test_gabriel_rng_planar;
          test_delaunay_planar;
          case "crossings detected" test_crossings_detected;
        ] );
      ( "maintenance",
        [
          test_maintenance_matches_rebuild;
          case "locality" test_maintenance_locality;
          case "bounds" test_maintenance_bounds;
        ] );
      ("degenerate", [ case "all constructions total for n <= 2" test_degenerate_totality ]);
      ( "cbtc",
        [
          test_cbtc_preserves_connectivity;
          test_cbtc_radii_within_range;
          test_cbtc_coverage_condition;
          case "alpha monotone" test_cbtc_alpha_monotone;
        ] );
    ]
