open Adhoc_geom
open Helpers

let pt = Point.make

(* ------------------------------------------------------------------ *)
(* Point                                                               *)

let test_point_arith () =
  let open Point in
  let a = pt 1. 2. and b = pt 3. 5. in
  check_close "sum x" 4. (a +@ b).x;
  check_close "sum y" 7. (a +@ b).y;
  check_close "diff x" 2. (b -@ a).x;
  check_close "scale" 6. (scale 2. (pt 3. 1.)).x;
  check_close "dot" 13. (dot a b);
  check_close "cross" (-1.) (cross a b)

let test_point_dist () =
  check_close "3-4-5" 5. (Point.dist (pt 0. 0.) (pt 3. 4.));
  check_close "dist2" 25. (Point.dist2 (pt 0. 0.) (pt 3. 4.));
  check_close "energy k2" 25. (Point.energy ~kappa:2. (pt 0. 0.) (pt 3. 4.));
  check_close "energy k3" 125. (Point.energy ~kappa:3. (pt 0. 0.) (pt 3. 4.));
  check_close "energy default" 4. (Point.energy (pt 0. 0.) (pt 2. 0.))

let test_point_angles () =
  check_close "east" 0. (Point.angle_of (pt 0. 0.) (pt 1. 0.));
  check_close "north" (Float.pi /. 2.) (Point.angle_of (pt 0. 0.) (pt 0. 1.));
  check_close "west" Float.pi (Point.angle_of (pt 0. 0.) (pt (-1.) 0.));
  check_close "south" (3. *. Float.pi /. 2.) (Point.angle_of (pt 0. 0.) (pt 0. (-1.)))

let test_point_misc () =
  let m = Point.midpoint (pt 0. 0.) (pt 2. 4.) in
  check_close "mid x" 1. m.Point.x;
  let l = Point.lerp (pt 0. 0.) (pt 10. 0.) 0.3 in
  check_close "lerp" 3. l.Point.x;
  Alcotest.(check bool) "equal" true (Point.equal (pt 1. 2.) (pt 1. 2.));
  Alcotest.(check bool) "compare" true (Point.compare (pt 1. 2.) (pt 1. 3.) < 0);
  Alcotest.(check string) "to_string" "(1, 2)" (Point.to_string (pt 1. 2.))

(* ------------------------------------------------------------------ *)
(* Sector                                                              *)

let test_sector_count () =
  Alcotest.(check int) "pi/3" 6 (Sector.count (Float.pi /. 3.));
  Alcotest.(check int) "pi/2" 4 (Sector.count (Float.pi /. 2.));
  Alcotest.(check int) "pi/6" 12 (Sector.count (Float.pi /. 6.));
  Alcotest.(check int) "2pi" 1 (Sector.count (2. *. Float.pi))

let test_sector_index_known () =
  let theta = Float.pi /. 2. in
  let apex = pt 0. 0. in
  Alcotest.(check int) "east" 0 (Sector.index ~theta ~apex (pt 1. 0.1));
  Alcotest.(check int) "north" 1 (Sector.index ~theta ~apex (pt (-0.1) 1.));
  Alcotest.(check int) "west" 2 (Sector.index ~theta ~apex (pt (-1.) (-0.1)));
  Alcotest.(check int) "south" 3 (Sector.index ~theta ~apex (pt 0.1 (-1.)))

let test_sector_index_in_range =
  qtest "sector index in range"
    QCheck2.Gen.(triple (float_range 0.1 2.) (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (theta, x, y) ->
      QCheck2.assume (not (Float.equal x 0.) || not (Float.equal y 0.));
      let i = Sector.index ~theta ~apex:Point.origin (pt x y) in
      i >= 0 && i < Sector.count theta)

let test_sector_index_matches_angle =
  qtest "index consistent with polar angle"
    QCheck2.Gen.(pair (float_range 0.2 1.5) (float_range 0. 6.2))
    (fun (theta, angle) ->
      let p = pt (cos angle) (sin angle) in
      let i = Sector.index ~theta ~apex:Point.origin p in
      let a = Point.angle_of Point.origin p in
      a >= (float_of_int i *. theta) -. 1e-9
      && (a < (float_of_int (i + 1) *. theta) +. 1e-9 || i = Sector.count theta - 1))

let test_sector_same () =
  let theta = Float.pi /. 3. in
  Alcotest.(check bool) "same" true
    (Sector.same ~theta ~apex:Point.origin (pt 1. 0.1) (pt 2. 0.3));
  Alcotest.(check bool) "different" false
    (Sector.same ~theta ~apex:Point.origin (pt 1. 0.1) (pt (-1.) 0.1))

(* ------------------------------------------------------------------ *)
(* Circle                                                              *)

let test_circle_membership () =
  let c = Circle.make (pt 0. 0.) 1. in
  Alcotest.(check bool) "inside" true (Circle.contains c (pt 0.5 0.));
  Alcotest.(check bool) "boundary open" false (Circle.contains c (pt 1. 0.));
  Alcotest.(check bool) "boundary closed" true (Circle.contains_closed c (pt 1. 0.));
  Alcotest.(check bool) "outside" false (Circle.contains_closed c (pt 1.1 0.))

let test_circle_intersects () =
  let a = Circle.make (pt 0. 0.) 1. in
  Alcotest.(check bool) "overlap" true (Circle.intersects a (Circle.make (pt 1.5 0.) 1.));
  Alcotest.(check bool) "tangent open" false (Circle.intersects a (Circle.make (pt 2. 0.) 1.));
  Alcotest.(check bool) "disjoint" false (Circle.intersects a (Circle.make (pt 3. 0.) 1.))

let test_circle_diametral () =
  let d = Circle.diametral (pt 0. 0.) (pt 2. 0.) in
  check_close "center" 1. d.Circle.center.Point.x;
  check_close "radius" 1. d.Circle.radius;
  Alcotest.(check bool) "contains mid" true (Circle.contains d (pt 1. 0.5));
  Alcotest.(check bool) "open at endpoints" false (Circle.contains d (pt 0. 0.))

let test_circumcircle () =
  (* Right triangle: the hypotenuse is a diameter. *)
  match Circle.circumcircle (pt 0. 0.) (pt 4. 0.) (pt 0. 3.) with
  | None -> Alcotest.fail "expected circumcircle"
  | Some c ->
      check_close "center x" 2. c.Circle.center.Point.x;
      check_close "center y" 1.5 c.Circle.center.Point.y;
      check_close "radius" 2.5 c.Circle.radius

let test_circumcircle_collinear () =
  Alcotest.(check bool) "collinear none" true
    (Circle.circumcircle (pt 0. 0.) (pt 1. 0.) (pt 2. 0.) = None)

let test_in_circumcircle_matches_radius =
  qtest "in_circumcircle agrees with explicit circle" ~count:300 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let p () = pt (Prng.range rng (-1.) 1.) (Prng.range rng (-1.) 1.) in
      let a = p () and b = p () and c = p () and q = p () in
      match Circle.circumcircle a b c with
      | None -> true
      | Some circle ->
          let by_radius = Point.dist circle.Circle.center q < circle.Circle.radius -. 1e-9 in
          let by_det = Circle.in_circumcircle a b c q in
          let boundary =
            Float.abs (Point.dist circle.Circle.center q -. circle.Circle.radius) < 1e-7
          in
          boundary || by_radius = by_det)

(* ------------------------------------------------------------------ *)
(* Box                                                                 *)

let test_box_basics () =
  let b = Box.square 2. in
  check_close "width" 2. (Box.width b);
  Alcotest.(check bool) "contains" true (Box.contains b (pt 1. 1.));
  Alcotest.(check bool) "excludes" false (Box.contains b (pt 3. 1.));
  let c = Box.center b in
  check_close "center" 1. c.Point.x;
  check_close "diagonal" (2. *. sqrt 2.) (Box.diagonal b)

let test_box_of_points_clamp () =
  let b = Box.of_points [| pt 1. 1.; pt 3. 5.; pt 2. 0. |] in
  check_close "xmin" 1. b.Box.xmin;
  check_close "ymax" 5. b.Box.ymax;
  let cl = Box.clamp b (pt 10. (-1.)) in
  check_close "clamp x" 3. cl.Point.x;
  check_close "clamp y" 0. cl.Point.y;
  let e = Box.expand b 1. in
  check_close "expand" 0. e.Box.xmin

let test_box_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Box.make: inverted bounds") (fun () ->
      ignore (Box.make ~xmin:1. ~ymin:0. ~xmax:0. ~ymax:1.))

(* ------------------------------------------------------------------ *)
(* Spatial_grid                                                        *)

let brute_within points p r =
  let r2 = r *. r in
  let acc = ref [] in
  Array.iteri (fun i q -> if Point.dist2 q p <= r2 then acc := i :: !acc) points;
  List.sort compare !acc

let test_grid_within_matches_brute =
  qtest "indices_within = brute force" ~count:200 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let points = points_of_seed ~min_n:2 ~max_n:60 seed in
      let grid = Spatial_grid.build ~cell:(Prng.range rng 0.05 0.5) points in
      let p = pt (Prng.uniform rng) (Prng.uniform rng) in
      let r = Prng.range rng 0.01 0.8 in
      List.sort compare (indices_within grid p r) = brute_within points p r)

(* The ring scan [fold_within] ran before it scanned a box, kept as the
   reference for its order: every cell within 1 + ceil (r / cell) rings of
   [p]'s cell, row-major, each in slot order, consed like
   [indices_within]. *)
let ring_within grid (p : Point.t) r =
  let r2 = r *. r in
  let span = 1 + int_of_float (Float.ceil (r /. Spatial_grid.cell_size grid)) in
  (* [column] and [row] clamp, so a coordinate far past the unit-square
     sets these tests use names the last column and row. *)
  let last_col = Spatial_grid.column grid 1e15 and last_row = Spatial_grid.row grid 1e15 in
  let col0 = Spatial_grid.column grid p.Point.x and row0 = Spatial_grid.row grid p.Point.y in
  let ids = Spatial_grid.slot_ids grid in
  let xs = Spatial_grid.slot_xs grid and ys = Spatial_grid.slot_ys grid in
  let acc = ref [] in
  for row = max 0 (row0 - span) to min last_row (row0 + span) do
    for col = max 0 (col0 - span) to min last_col (col0 + span) do
      for k = Spatial_grid.cell_lo grid ~col ~row to Spatial_grid.cell_hi grid ~col ~row - 1 do
        let dx = xs.(k) -. p.Point.x and dy = ys.(k) -. p.Point.y in
        if (dx *. dx) +. (dy *. dy) <= r2 then acc := ids.(k) :: !acc
      done
    done
  done;
  !acc

(* Random sets, plus points at distance exactly [r] from the query along
   each axis and one ulp either side of it, queried at [r] and one ulp
   either side, on a grid whose cell is [r] (as [Udg] builds it) or a
   random size. *)
let test_grid_box_matches_ring =
  qtest "indices_within = ring scan, order included" ~count:300 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let p = pt (Prng.uniform rng) (Prng.uniform rng) in
      let r = Prng.range rng 0.01 0.5 in
      let edge x = [ x; Float.succ x; Float.pred x ] in
      let rim =
        List.concat_map
          (fun x -> [ pt x p.Point.y ])
          (edge (p.Point.x +. r) @ edge (p.Point.x -. r))
        @ List.concat_map
            (fun y -> [ pt p.Point.x y ])
            (edge (p.Point.y +. r) @ edge (p.Point.y -. r))
      in
      let points = Array.append (points_of_seed ~min_n:2 ~max_n:60 seed) (Array.of_list rim) in
      let cells = [ r; Prng.range rng 0.02 0.5 ] in
      List.for_all
        (fun cell ->
          let grid = Spatial_grid.build ~cell points in
          List.for_all
            (fun q ->
              List.for_all
                (fun r -> indices_within grid q r = ring_within grid q r)
                (edge r @ [ r *. (1. +. 1e-9) ]))
            (p :: Array.to_list points))
        cells)

(* A radius whose offset in cells passes the int range, or whose square
   overflows, still covers the whole grid. *)
let test_grid_huge_radius () =
  let points = points_of_seed ~min_n:20 ~max_n:40 5 in
  let grid = Spatial_grid.build ~cell:0.05 points in
  List.iter
    (fun r ->
      Alcotest.(check (list int))
        (Printf.sprintf "every point within %g" r)
        (brute_within points (pt 0.5 0.5) r)
        (List.sort compare (indices_within grid (pt 0.5 0.5) r)))
    [ 1e18; 1e150; 1e160; infinity ]

let brute_nearest_other points i =
  let best = ref None in
  Array.iteri
    (fun j q ->
      if j <> i then begin
        let d = Point.dist2 q points.(i) in
        match !best with
        | Some (bd, bj) when bd < d || (bd = d && bj < j) -> ()
        | _ -> best := Some (d, j)
      end)
    points;
  Option.map snd !best

let test_grid_nearest_matches_brute =
  qtest "nearest_other = brute force" ~count:200 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let points = points_of_seed ~min_n:2 ~max_n:50 seed in
      let grid = Spatial_grid.build ~cell:(Prng.range rng 0.02 0.4) points in
      let i = Prng.int rng (Array.length points) in
      Spatial_grid.nearest_other grid i = brute_nearest_other points i)

let test_grid_single_point () =
  let grid = Spatial_grid.build ~cell:1. [| pt 0.5 0.5 |] in
  Alcotest.(check bool) "no other" true (Spatial_grid.nearest_other grid 0 = None)

(* ------------------------------------------------------------------ *)
(* Hexgrid                                                             *)

let test_hex_center_roundtrip =
  qtest "of_point(center c) = c"
    QCheck2.Gen.(triple (int_range (-20) 20) (int_range (-20) 20) (float_range 0.1 5.))
    (fun (q, r, side) ->
      let g = Hexgrid.make ~side in
      let c = { Hexgrid.q; r } in
      Hexgrid.equal_coord (Hexgrid.of_point g (Hexgrid.center g c)) c)

let test_hex_containment_radius =
  qtest "points map to a nearby hexagon" ~count:300 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let side = Prng.range rng 0.2 3. in
      let g = Hexgrid.make ~side in
      let p = pt (Prng.range rng (-20.) 20.) (Prng.range rng (-20.) 20.) in
      let c = Hexgrid.of_point g p in
      (* Any point lies within the circumradius (= side) of its hexagon's
         center. *)
      Point.dist p (Hexgrid.center g c) <= side +. 1e-9)

(* Graph distance on the hexagonal lattice, to check the neighbours and
   rings against. *)
let hex_distance (a : Hexgrid.coord) (b : Hexgrid.coord) =
  let dq = a.q - b.q and dr = a.r - b.r in
  let ds = -dq - dr in
  (abs dq + abs dr + abs ds) / 2

let test_hex_neighbors () =
  let c = { Hexgrid.q = 2; r = -1 } in
  let ns = Hexgrid.neighbors c in
  Alcotest.(check int) "six neighbors" 6 (List.length ns);
  List.iter (fun n -> Alcotest.(check int) "distance one" 1 (hex_distance c n)) ns;
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq Hexgrid.compare_coord ns))

let test_hex_ring_disk () =
  let c = { Hexgrid.q = 0; r = 0 } in
  Alcotest.(check int) "ring 0" 1 (List.length (Hexgrid.ring c 0));
  Alcotest.(check int) "ring 1" 6 (List.length (Hexgrid.ring c 1));
  Alcotest.(check int) "ring 3" 18 (List.length (Hexgrid.ring c 3));
  List.iter
    (fun h -> Alcotest.(check int) "ring distance" 3 (hex_distance c h))
    (Hexgrid.ring c 3);
  Alcotest.(check int) "disk 2" 19 (List.length (Hexgrid.disk c 2))

let test_hex_group_points () =
  let g = Hexgrid.make ~side:1. in
  let rng = Prng.create 3 in
  let points = Adhoc_pointset.Generators.uniform ~box:(Box.square 10.) rng 100 in
  let groups = Hexgrid.group_points g points in
  let total = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 groups in
  Alcotest.(check int) "partition covers all" 100 total;
  List.iter
    (fun (c, members) ->
      List.iter
        (fun i ->
          Alcotest.(check bool) "member maps to its hexagon" true
            (Hexgrid.equal_coord (Hexgrid.of_point g points.(i)) c))
        members)
    groups


(* ------------------------------------------------------------------ *)
(* Segment                                                             *)

let test_segment_orientation () =
  Alcotest.(check int) "ccw" 1 (Segment.orientation (pt 0. 0.) (pt 1. 0.) (pt 0.5 1.));
  Alcotest.(check int) "cw" (-1) (Segment.orientation (pt 0. 0.) (pt 1. 0.) (pt 0.5 (-1.)));
  Alcotest.(check int) "collinear" 0 (Segment.orientation (pt 0. 0.) (pt 1. 0.) (pt 2. 0.))

(* ------------------------------------------------------------------ *)
(* Hull                                                                *)

let test_hull_square () =
  let pts =
    [| pt 0. 0.; pt 1. 0.; pt 1. 1.; pt 0. 1.; pt 0.5 0.5; pt 0.25 0.75 |]
  in
  let hull = Hull.convex pts in
  Alcotest.(check int) "four corners" 4 (List.length hull);
  check_close "diameter" (sqrt 2.) (Hull.diameter pts)

let test_hull_contains_all =
  qtest "hull contains every point" ~count:150 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:3 ~max_n:60 seed in
      let hull = Array.of_list (Hull.convex points) in
      let h = Array.length hull in
      h < 3
      || Array.for_all
           (fun p ->
             let ok = ref true in
             for i = 0 to h - 1 do
               if Segment.orientation hull.(i) hull.((i + 1) mod h) p < 0 then ok := false
             done;
             !ok)
           points)

let test_hull_diameter_matches_brute =
  qtest "hull diameter = brute force" ~count:150 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:2 ~max_n:50 seed in
      let brute = ref 0. in
      Array.iteri
        (fun i p ->
          Array.iteri (fun j q -> if j > i then brute := Float.max !brute (Point.dist p q)) points)
        points;
      close ~eps:1e-12 (Hull.diameter points) !brute)

let test_hull_degenerate () =
  Alcotest.(check int) "single" 1 (List.length (Hull.convex [| pt 1. 1. |]));
  Alcotest.(check int) "duplicates collapse" 1
    (List.length (Hull.convex [| pt 1. 1.; pt 1. 1. |]));
  check_close "collinear diameter" 2. (Hull.diameter [| pt 0. 0.; pt 1. 0.; pt 2. 0. |])


let test_box_expand_contains =
  qtest "expanded box contains the original's corners" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let b =
        Box.make ~xmin:(Prng.range rng (-5.) 0.) ~ymin:(Prng.range rng (-5.) 0.)
          ~xmax:(Prng.range rng 0. 5.) ~ymax:(Prng.range rng 0. 5.)
      in
      let e = Box.expand b (Prng.range rng 0. 2.) in
      Box.contains e (pt b.Box.xmin b.Box.ymin) && Box.contains e (pt b.Box.xmax b.Box.ymax))

let test_circle_intersects_symmetric =
  qtest "disk intersection is symmetric" ~count:200 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let c () = Circle.make (pt (Prng.uniform rng) (Prng.uniform rng)) (Prng.range rng 0.01 1.) in
      let a = c () and b = c () in
      Circle.intersects a b = Circle.intersects b a)

let test_grid_query_includes_self =
  qtest "a stored point is found within any positive radius" ~count:100 seed_gen (fun seed ->
      let points = points_of_seed ~min_n:1 ~max_n:40 seed in
      let grid = Spatial_grid.build ~cell:0.1 points in
      let rng = Prng.create (seed + 3) in
      let i = Prng.int rng (Array.length points) in
      List.mem i (indices_within grid points.(i) 1e-12))

let () =
  Alcotest.run "geom"
    [
      ( "point",
        [
          case "arith" test_point_arith;
          case "dist/energy" test_point_dist;
          case "angles" test_point_angles;
          case "misc" test_point_misc;
        ] );
      ( "sector",
        [
          case "count" test_sector_count;
          case "index known" test_sector_index_known;
          test_sector_index_in_range;
          test_sector_index_matches_angle;
          case "same" test_sector_same;
        ] );
      ( "circle",
        [
          case "membership" test_circle_membership;
          case "intersects" test_circle_intersects;
          case "diametral" test_circle_diametral;
          case "circumcircle" test_circumcircle;
          case "collinear" test_circumcircle_collinear;
          test_in_circumcircle_matches_radius;
          test_circle_intersects_symmetric;
        ] );
      ( "box",
        [
          case "basics" test_box_basics;
          case "of_points/clamp" test_box_of_points_clamp;
          case "invalid" test_box_invalid;
          test_box_expand_contains;
        ] );
      ( "spatial_grid",
        [
          test_grid_within_matches_brute;
          test_grid_box_matches_ring;
          test_grid_nearest_matches_brute;
          case "single point" test_grid_single_point;
          case "huge radius" test_grid_huge_radius;
          test_grid_query_includes_self;
        ] );
      ( "segment",
        [
          case "orientation" test_segment_orientation;
        ] );
      ( "hull",
        [
          case "square" test_hull_square;
          test_hull_contains_all;
          test_hull_diameter_matches_brute;
          case "degenerate" test_hull_degenerate;
        ] );
      ( "hexgrid",
        [
          test_hex_center_roundtrip;
          test_hex_containment_radius;
          case "neighbors" test_hex_neighbors;
          case "ring/disk" test_hex_ring_disk;
          case "group points" test_hex_group_points;
        ] );
    ]
