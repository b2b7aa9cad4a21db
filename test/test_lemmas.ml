(* Executable renderings of the paper's geometric lemmas (Section 2.2,
   Figures 1-4).  Each lemma is a closed-form inequality over a constrained
   point configuration; we sample configurations satisfying the hypotheses
   and check the conclusion numerically. *)

open Adhoc_geom
open Helpers

let pt = Point.make

(* Rotate a vector about the origin by [a] radians, counter-clockwise. *)
let rotate a (p : Point.t) =
  let c = cos a and s = sin a in
  pt ((c *. p.x) -. (s *. p.y)) ((s *. p.x) +. (c *. p.y))

(* The unsigned angle a·apex·b in [0, π]. *)
let angle_between a apex b =
  let u = Point.(a -@ apex) and v = Point.(b -@ apex) in
  let nu = Point.norm u and nv = Point.norm v in
  if Float.equal nu 0. || Float.equal nv 0. then 0.
  else begin
    let c = Point.dot u v /. (nu *. nv) in
    Float.acos (Float.max (-1.) (Float.min 1. c))
  end

(* Lemma 2.3: triangle ABC with |AC| <= |BC| and angle ACB <= pi/3 satisfies
   c|AB|^2 + |AC|^2 <= c|BC|^2 for c >= 1/(2 cos(angle ACB) - 1). *)
let lemma_2_3 =
  qtest "Lemma 2.3" ~count:2000 seed_gen (fun seed ->
      let rng = Prng.create seed in
      (* C at the origin; A on the x-axis; B at angle phi with |BC| >= |AC|. *)
      let ac = Prng.range rng 0.1 10. in
      let bc = ac +. Prng.range rng 0. 10. in
      let phi = Prng.range rng 1e-3 ((Float.pi /. 3.) -. 1e-3) in
      let a = pt ac 0. and b = pt (bc *. cos phi) (bc *. sin phi) in
      let c_const = 1. /. ((2. *. cos phi) -. 1.) in
      let ab2 = Point.dist2 a b in
      (c_const *. ab2) +. (ac *. ac) <= (c_const *. bc *. bc) +. 1e-6)

(* Lemma 2.4: triangle with |BC| <= |AC| <= |AB| and angle BAC <= pi/6
   satisfies |BC| <= |AB| / (2 cos(angle BAC)). *)
let lemma_2_4 =
  qtest "Lemma 2.4" ~count:5000 seed_gen (fun seed ->
      let rng = Prng.create seed in
      (* A at the origin, B on the x-axis; C at angle alpha <= pi/6. *)
      let ab = 1. in
      let alpha = Prng.range rng 1e-3 ((Float.pi /. 6.) -. 1e-3) in
      let ac = Prng.range rng 0.05 ab in
      let a = pt 0. 0. and b = pt ab 0. in
      let c = pt (ac *. cos alpha) (ac *. sin alpha) in
      let bc = Point.dist b c in
      QCheck2.assume (bc <= ac);
      ignore a;
      bc <= (ab /. (2. *. cos alpha)) +. 1e-9)

(* Lemma 2.5: points A, A1..Ak with |A Ai| >= |A A(i+1)| and consecutive
   angular gaps in [0, theta]; if the total angle is alpha then
   sum |Ai A(i+1)|^2 <= (|A A1| - |A Ak|)^2 + 2 |A A1|^2 (alpha/theta)(1 - cos theta). *)
let lemma_2_5 =
  qtest "Lemma 2.5" ~count:2000 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let theta = Prng.range rng 0.02 (Float.pi /. 3.) in
      let k = 2 + Prng.int rng 8 in
      let r = ref (Prng.range rng 1. 5.) in
      let angle = ref 0. in
      let pts =
        Array.init k (fun i ->
            if i > 0 then begin
              angle := !angle +. Prng.range rng 0. theta;
              r := !r *. Prng.range rng 0.5 1.
            end;
            pt (!r *. cos !angle) (!r *. sin !angle))
      in
      let alpha = !angle in
      let r1 = Point.dist Point.origin pts.(0) in
      let rk = Point.dist Point.origin pts.(k - 1) in
      let sum = ref 0. in
      for i = 0 to k - 2 do
        sum := !sum +. Point.dist2 pts.(i) pts.(i + 1)
      done;
      !sum
      <= ((r1 -. rk) *. (r1 -. rk))
         +. (2. *. r1 *. r1 *. (alpha /. theta) *. (1. -. cos theta))
         +. 1e-6)

(* Lemma 2.6: A = (0,0), B = (1,0), O the midpoint of AB; D with |BD| = |AB|
   and angle DBA = pi/6 (above the axis); C outside circle C(O, |OA|) with
   |AC| <= |AB|, angle CAB < pi/12, same side as D.  If E is the
   intersection of segment (C, D) with the circle, then
   angle EAB <= 2 * angle CAB. *)
let segment_circle_intersections (p : Point.t) (q : Point.t) (c : Circle.t) =
  let open Point in
  let d = q -@ p in
  let f = p -@ c.Circle.center in
  let a = dot d d in
  let b = 2. *. dot f d in
  let cc = dot f f -. (c.Circle.radius *. c.Circle.radius) in
  let disc = (b *. b) -. (4. *. a *. cc) in
  if disc < 0. || Float.equal a 0. then []
  else begin
    let sq = sqrt disc in
    let t1 = (-.b -. sq) /. (2. *. a) and t2 = (-.b +. sq) /. (2. *. a) in
    List.filter_map
      (fun t -> if t >= 0. && t <= 1. then Some (lerp p q t) else None)
      [ t1; t2 ]
  end

let lemma_2_6 =
  qtest "Lemma 2.6" ~count:5000 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let a = pt 0. 0. and b = pt 1. 0. in
      let o = Point.midpoint a b in
      let circle = Circle.make o (Point.dist o a) in
      (* D above the axis with |BD| = |AB| = 1 and angle DBA = pi/6. *)
      let d =
        let dir = rotate (-.Float.pi /. 6.) Point.(a -@ b) in
        Point.(b +@ dir)
      in
      (* C above the axis, outside the circle, |AC| <= 1, angle CAB < pi/12. *)
      let gamma = Prng.range rng 1e-3 ((Float.pi /. 12.) -. 1e-3) in
      let ac = Prng.range rng 0.05 1. in
      let c = pt (ac *. cos gamma) (ac *. sin gamma) in
      QCheck2.assume (not (Circle.contains_closed circle c));
      match segment_circle_intersections c d circle with
      | [] -> QCheck2.assume_fail ()
      | es ->
          (* Take the intersection nearer C (where the segment enters). *)
          let e =
            List.fold_left
              (fun best p ->
                if Point.dist c p < Point.dist c best then p else best)
              (List.hd es) es
          in
          let eab = angle_between e a b in
          eab <= (2. *. gamma) +. 1e-9)

let () =
  Alcotest.run "lemmas"
    [
      ( "geometry",
        [ lemma_2_3; lemma_2_4; lemma_2_5; lemma_2_6 ] );
    ]
