open Adhoc_interference
module Graph = Adhoc_graph.Graph
module Udg = Adhoc_topo.Udg
module Theta_alg = Adhoc_topo.Theta_alg
open Helpers

let pt = Point.make

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_region_radius () =
  let m = Model.make ~delta:0.5 in
  check_close "radius" 3. (Model.region_radius m 2.)

let test_in_region () =
  let m = Model.make ~delta:0.5 in
  let points = [| pt 0. 0.; pt 1. 0. |] in
  (* Interference region: disks of radius 1.5 around both endpoints. *)
  Alcotest.(check bool) "near sender" true (Model.in_region m ~points ~x:0 ~y:1 (pt (-1.) 0.));
  Alcotest.(check bool) "near receiver" true (Model.in_region m ~points ~x:0 ~y:1 (pt 2.4 0.));
  Alcotest.(check bool) "far" false (Model.in_region m ~points ~x:0 ~y:1 (pt 3. 0.));
  Alcotest.(check bool) "boundary open" false (Model.in_region m ~points ~x:0 ~y:1 (pt 2.5 0.))

let test_interferes_cases () =
  let m = Model.make ~delta:0.5 in
  (* Two short parallel edges, close together -> interfere. *)
  let points = [| pt 0. 0.; pt 1. 0.; pt 0. 0.5; pt 1. 0.5; pt 10. 0.; pt 11. 0. |] in
  Alcotest.(check bool) "close edges interfere" true
    (Model.interferes m ~points (0, 1) (2, 3));
  Alcotest.(check bool) "far edges do not" false (Model.interferes m ~points (0, 1) (4, 5));
  Alcotest.(check bool) "symmetric" true
    (Model.interferes m ~points (2, 3) (0, 1) = Model.interferes m ~points (0, 1) (2, 3));
  Alcotest.(check bool) "self" true (Model.interferes m ~points (0, 1) (0, 1))

let test_make_rejects_bad_delta () =
  List.iter
    (fun delta ->
      match Model.make ~delta with
      | _ -> Alcotest.failf "Model.make accepted delta = %g" delta
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; -1. ];
  check_close "zero accepted" 0. (Model.make ~delta:0.).Model.delta

let test_asymmetric_one_way () =
  (* A long edge's region can cover a short far edge while the short edge's
     region misses the long one: one_way is genuinely directional. *)
  let m = Model.make ~delta:0. in
  let points = [| pt 0. 0.; pt 10. 0.; pt 4. 3.; pt 4.5 3. |] in
  Alcotest.(check bool) "long covers short" true
    (Model.one_way m ~points ~src:(0, 1) ~dst:(2, 3));
  Alcotest.(check bool) "short misses long" false
    (Model.one_way m ~points ~src:(2, 3) ~dst:(0, 1))

(* ------------------------------------------------------------------ *)
(* Conflict                                                            *)

let overlay_instance seed =
  let points = points_of_seed ~min_n:5 ~max_n:35 seed in
  let range = 2. *. Udg.critical_range points in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range points in
  (points, Theta_alg.overlay alg, Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)

(* Point families on which the lowest-endpoint rule or the scanned box
   can go wrong: repeated points (zero-length edges, whose open guard
   disks are empty), an exact integer lattice (many distances equal an
   edge's length exactly), collinear points, and a lattice scaled by a
   power of two whose edges are all unit steps, so every edge's reach is
   the grid's cell and, at Δ = 0 or 1, nodes sit exactly at reach
   distance on cell boundaries.  Edges join every pair within a range, so
   in the other families long and short edges mix. *)
let witness_instance rng family =
  let n = 2 + Prng.int rng 30 in
  let points, range =
    match family with
    | 1 ->
        let base = Adhoc_pointset.Generators.uniform rng (max 1 (n / 3)) in
        (Array.init n (fun _ -> base.(Prng.int rng (Array.length base))), Prng.range rng 0.1 0.6)
    | 2 | 5 ->
        let k = 1 + Prng.int rng 6 in
        ( Array.init n (fun i -> pt (float_of_int (i mod k)) (float_of_int (i / k))),
          [| 1.; 1.5; 2. |].(Prng.int rng 3) )
    | 4 ->
        let k = 1 + Prng.int rng 6 and s = Float.ldexp 1. (Prng.int rng 5 - 2) in
        let x0 = float_of_int (Prng.int rng 7 - 3) in
        ( Array.init n (fun i -> pt (x0 +. (s *. float_of_int (i mod k))) (s *. float_of_int (i / k))),
          s )
    | _ ->
        let slope = Prng.range rng (-2.) 2. in
        ( Array.init n (fun _ ->
              let t = Prng.uniform rng in
              pt t (slope *. t)),
          Prng.range rng 0.1 0.6 )
  in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Point.dist points.(i) points.(j) <= range then pairs := (i, j) :: !pairs
    done
  done;
  (points, Graph.geometric points !pairs)

(* The CSR contract: offsets start at 0, never decrease and end at the
   partner count; every row is strictly ascending, never holds its own
   edge, and rows are symmetric. *)
let csr_invariants (c : Conflict.t) =
  let m = Array.length c.offsets - 1 in
  let ok = ref (m >= 0 && c.offsets.(0) = 0 && c.offsets.(m) = Bigarray.Array1.dim c.partners) in
  for e = 0 to m - 1 do
    if c.offsets.(e + 1) < c.offsets.(e) then ok := false
    else
      for k = c.offsets.(e) to c.offsets.(e + 1) - 1 do
        let e' = Int32.to_int c.partners.{k} in
        if e' = e || e' < 0 || e' >= m then ok := false
        else if k > c.offsets.(e) && Int32.to_int c.partners.{k - 1} >= e' then ok := false
        else if not (Conflict.interfere c e' e) then ok := false
      done
  done;
  !ok

(* Θ-overlays of uniform points, then the witness families.  Δ = 0 puts
   endpoints on the disks' boundary, Δ = 1e6 makes nearly every pair
   interfere; family 4 takes Δ ∈ {0, 0.5, 1} and family 5, the integer
   lattice again, always Δ = 0. *)
let test_build_matches_brute =
  qtest "grid-accelerated = brute force" ~count:360 seed_gen (fun seed ->
      let rng = Prng.create (seed + 3) in
      let family = seed mod 6 in
      let points, g =
        match family with
        | 0 ->
            let points, g, _ = overlay_instance seed in
            (points, g)
        | family -> witness_instance rng family
      in
      let delta =
        match family with
        | 4 -> [| 0.; 0.5; 1. |].(Prng.int rng 3)
        | 5 -> 0.
        | _ -> [| 0.; 1e6; Prng.range rng 0. 1. |].(seed / 6 mod 3)
      in
      let m = Model.make ~delta in
      let fast = Conflict.build m ~points g in
      let brute = Reference_conflict.build_brute m ~points g in
      let rows = conflict_rows brute in
      let edges = List.init (Graph.num_edges g) Fun.id in
      (* [interfere] answers membership in the rows for every ordered
         pair, e = e' included. *)
      csr_invariants fast && csr_invariants brute
      && fast.Conflict.offsets = brute.Conflict.offsets
      && fast.Conflict.partners = brute.Conflict.partners
      && List.for_all
           (fun e ->
             List.for_all (fun e' -> Conflict.interfere fast e e' = Array.mem e' rows.(e)) edges)
           edges)

(* build-4k's conflict input (jittered grid, seed 1, 1.5× the critical
   range, θ = π/6, Δ = 0.5), at [n] points. *)
let build_4k_instance n =
  let points = Adhoc_pointset.Generators.jittered_grid ~jitter:0.1 (Prng.create 1) n in
  let range = 1.5 *. Udg.critical_range points in
  (points, Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points))

let test_build_matches_brute_build_4k_eighth () =
  let points, g = build_4k_instance 512 in
  let m = Model.make ~delta:0.5 in
  let fast = Conflict.build m ~points g in
  Alcotest.(check bool) "same rows" true (fast = Reference_conflict.build_brute m ~points g)

(* The Set-based candidate search allocated 77.2M minor words here; the
   per-edge scan with counting-pass assembly 16.3M while its keep test went
   through Model.one_way (two tuples and a boxed float per kept
   candidate), and about 5.9M with reach² precomputed per edge.  One box
   scan per edge into an int buffer, with the rows in one CSR array
   allocated on the major heap, takes 2.42M. *)
let test_build_allocation () =
  let points, g = build_4k_instance 4096 in
  let module Gcstat = Adhoc_obs.Gcstat in
  let before = Gcstat.read () in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  let after = Gcstat.read () in
  let words = (Gcstat.delta ~before ~after).Gcstat.minor_words in
  Alcotest.(check int) "pairs" 1409790 (Array.fold_left ( + ) 0 (Conflict.set_sizes c));
  if words > 3e6 then Alcotest.failf "Conflict.build allocated %.0f minor words" words

(* Conflict.build's peak resident set on build-4k's input.  Beside the
   per-edge reports, the build holds only the CSR arrays, filled in place
   with no pair-sized scratch.  One array per row raised VmHWM by 11.0 MB
   here, and the bound is 5% above it; the int32 partner array takes
   7.8 MB, where an int array took 13.9 MB, since one large block cannot
   reuse the heap's free small-block space that the rows could.  test/dune
   runs this group alone, in a process of its own, where the peak is the
   build's; within the whole suite it is shared with every earlier
   test. *)
let test_build_retention () =
  let points, g = build_4k_instance 4096 in
  let before = peak_rss_mb () in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  Alcotest.(check int) "pairs" 1409790 (Bigarray.Array1.dim c.Conflict.partners);
  match (before, peak_rss_mb ()) with
  | Some before, Some after when after -. before > 11.0 *. 1.05 ->
      Alcotest.failf "Conflict.build raised the peak resident set by %.1f MB" (after -. before)
  | _ -> ()

let test_interference_number_zero () =
  let points = [| pt 0. 0.; pt 1. 0. |] in
  let g = Graph.geometric points [ (0, 1) ] in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  Alcotest.(check int) "single edge" 0 (Conflict.interference_number c)

let test_coloring_proper =
  qtest "greedy colouring is proper" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.5) ~points g in
      let colors, k = Conflict.greedy_coloring c in
      let proper = ref true in
      Array.iteri
        (fun e neighbors ->
          Array.iter (fun e' -> if colors.(e) = colors.(e') then proper := false) neighbors)
        (conflict_rows c);
      !proper && k <= Conflict.interference_number c + 1 && k >= 1)

let test_independent_and_greedy =
  qtest "greedy independent set is independent and maximal" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.5) ~points g in
      let all = List.init (Graph.num_edges g) Fun.id in
      let indep = Conflict.max_independent_greedy c all in
      Conflict.independent c indep
      && List.for_all
           (fun e ->
             List.mem e indep
             || List.exists (fun e' -> Conflict.interfere c e e') indep)
           all)

let test_set_sizes_symmetric =
  qtest "interference relation symmetric" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.3) ~points g in
      let ok = ref true in
      Array.iteri
        (fun e neighbors ->
          Array.iter (fun e' -> if not (Conflict.interfere c e' e) then ok := false) neighbors)
        (conflict_rows c);
      !ok)

(* ------------------------------------------------------------------ *)
(* Theta_paths (Theorem 2.8 / Lemma 2.9)                               *)

let test_theta_paths_valid =
  qtest "replacement paths walk overlay edges" ~count:60 seed_gen (fun seed ->
      let points, _, alg = overlay_instance seed in
      let range = alg.Theta_alg.range in
      let gstar = Udg.build ~range points in
      let overlay = Theta_alg.overlay alg in
      let tp = Theta_paths.create alg in
      Graph.fold_edges gstar ~init:true ~f:(fun acc _ e ->
          acc
          &&
          let path = Theta_paths.replace tp e.Graph.u e.Graph.v in
          let rec ok = function
            | a :: (b :: _ as rest) -> Graph.mem_edge overlay a b && ok rest
            | _ -> true
          in
          List.hd path = e.Graph.u
          && List.nth path (List.length path - 1) = e.Graph.v
          && ok path))

let test_theta_paths_identity_on_overlay_edges =
  qtest "overlay edges replace to themselves" ~count:40 seed_gen (fun seed ->
      let _, overlay, alg = overlay_instance seed in
      let tp = Theta_paths.create alg in
      Graph.fold_edges overlay ~init:true ~f:(fun acc _ e ->
          acc && Theta_paths.replace tp e.Graph.u e.Graph.v = [ e.Graph.u; e.Graph.v ]))

let test_lemma_2_9_multiplicity =
  qtest "Lemma 2.9: ≤ 6 θ-paths share an overlay edge" ~count:40 seed_gen (fun seed ->
      let points, _, alg = overlay_instance seed in
      let range = alg.Theta_alg.range in
      let gstar = Udg.build ~range points in
      let m = Model.make ~delta:0.25 in
      let conflict = Conflict.build m ~points gstar in
      let tp = Theta_paths.create alg in
      (* Several random maximal non-interfering sets T of G* edges. *)
      let rng = Prng.create (seed * 13) in
      let ids = Array.init (Graph.num_edges gstar) Fun.id in
      let ok = ref true in
      for _ = 1 to 3 do
        Prng.shuffle rng ids;
        let t = Conflict.max_independent_greedy conflict (Array.to_list ids) in
        let pairs = List.map (fun e -> Graph.endpoints gstar e) t in
        if Theta_paths.max_multiplicity tp pairs > 6 then ok := false
      done;
      !ok)

let test_replace_edges_pairs () =
  let points = [| pt 0. 0.; pt 1. 0.; pt 2. 0. |] in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range:2.5 points in
  let tp = Theta_paths.create alg in
  let edges = Theta_paths.replace_edges tp 0 2 in
  Alcotest.(check bool) "nonempty" true (edges <> []);
  let path = Theta_paths.replace tp 0 2 in
  Alcotest.(check int) "pairs count" (List.length path - 1) (List.length edges)


let test_neighborhood_bounds =
  qtest "I_e dominates neighbours' interference sets" ~count:40 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.4) ~points g in
      let sizes = Conflict.set_sizes c in
      let bounds = Conflict.neighborhood_bounds c in
      let ok = ref (Graph.num_edges g >= 0) in
      Array.iteri
        (fun e neighbors ->
          if bounds.(e) < sizes.(e) then ok := false;
          Array.iter (fun e' -> if bounds.(e) < sizes.(e') then ok := false) neighbors)
        (conflict_rows c);
      !ok)

let test_lemma_3_2_union_bound =
  qtest "Lemma 3.2: union bound sum <= 1/2 for every edge" ~count:40 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.4) ~points g in
      let bounds = Conflict.neighborhood_bounds c in
      ignore (Graph.num_edges g);
      Array.for_all
        (fun neighbors ->
          let s =
            Array.fold_left
              (fun acc e' -> acc +. (1. /. (2. *. float_of_int (max 1 bounds.(e')))))
              0. neighbors
          in
          s <= 0.5 +. 1e-9)
        (conflict_rows c))


(* ------------------------------------------------------------------ *)
(* SINR (physical model)                                               *)

let test_sinr_lone_transmission =
  qtest "a lone transmission always decodes" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let pts =
        [| pt (Prng.uniform rng) (Prng.uniform rng); pt (Prng.uniform rng) (Prng.uniform rng) |]
      in
      QCheck2.assume (Point.dist pts.(0) pts.(1) > 1e-6);
      let s = Sinr.make ~alpha:3. () in
      Sinr.all_feasible s ~points:pts ~transmissions:[| (0, 1) |])

let test_sinr_near_interferer_kills () =
  (* An interferer right next to the receiver swamps a long link. *)
  let pts = [| pt 0. 0.; pt 1. 0.; pt 1.05 0.; pt 2. 0. |] in
  let s = Sinr.make ~alpha:3. () in
  let txs = [| (0, 1); (2, 3) |] in
  let ok = Sinr.feasible s ~points:pts ~transmissions:txs in
  Alcotest.(check bool) "victim fails" false ok.(0)

let test_sinr_far_interferer_harmless () =
  let pts = [| pt 0. 0.; pt 0.1 0.; pt 100. 0.; pt 100.1 0. |] in
  let s = Sinr.make ~alpha:3. () in
  Alcotest.(check bool) "both decode" true
    (Sinr.all_feasible s ~points:pts ~transmissions:[| (0, 1); (2, 3) |])

let test_sinr_margin_monotone () =
  (* A larger decoding threshold can only shrink the feasible set. *)
  let rng = Prng.create 5 in
  let pts = Array.init 12 (fun _ -> pt (Prng.uniform rng) (Prng.uniform rng)) in
  let txs = [| (0, 1); (2, 3); (4, 5); (6, 7); (8, 9); (10, 11) |] in
  let frac beta =
    Sinr.feasible_fraction (Sinr.make ~beta ~alpha:3. ()) ~points:pts ~transmissions:txs
  in
  Alcotest.(check bool) "monotone in beta" true (frac 1. >= frac 4.)

let test_sinr_guard_zone_improves =
  qtest "larger guard zones raise SINR feasibility" ~count:10 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      QCheck2.assume (Graph.num_edges g > 3);
      let s = Sinr.make ~alpha:3. () in
      let frac delta =
        let c = Conflict.build (Model.make ~delta) ~points g in
        let set = Conflict.max_independent_greedy c (List.init (Graph.num_edges g) Fun.id) in
        let txs = Array.of_list (List.map (Graph.endpoints g) set) in
        Sinr.feasible_fraction s ~points ~transmissions:txs
      in
      frac 2. >= frac 0. -. 1e-9)

let () =
  Alcotest.run "interference"
    [
      ( "model",
        [
          case "region radius" test_region_radius;
          case "in_region" test_in_region;
          case "interferes" test_interferes_cases;
          case "one_way asymmetric" test_asymmetric_one_way;
          case "make rejects non-finite or negative delta" test_make_rejects_bad_delta;
        ] );
      ( "conflict",
        [
          test_build_matches_brute;
          case "grid-accelerated = brute force on build-4k at 1/8" test_build_matches_brute_build_4k_eighth;
          case "build-4k allocation" test_build_allocation;
          case "single edge" test_interference_number_zero;
          test_coloring_proper;
          test_independent_and_greedy;
          test_set_sizes_symmetric;
          test_neighborhood_bounds;
          test_lemma_3_2_union_bound;
        ] );
      ("retention", [ case "conflict retention: build-4k peak resident set" test_build_retention ]);
      ( "theta_paths",
        [
          test_theta_paths_valid;
          test_theta_paths_identity_on_overlay_edges;
          test_lemma_2_9_multiplicity;
          case "replace_edges" test_replace_edges_pairs;
        ] );
      ( "sinr",
        [
          test_sinr_lone_transmission;
          case "near interferer" test_sinr_near_interferer_kills;
          case "far interferer" test_sinr_far_interferer_harmless;
          case "beta monotone" test_sinr_margin_monotone;
          test_sinr_guard_zone_improves;
        ] );
    ]
