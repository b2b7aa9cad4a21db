open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Counting_sort = Adhoc_util.Counting_sort

(* Bowyer–Watson with point location.

   Each convex-hull edge (u, v) carries a ghost triangle (u, v, ghost).
   Its "circumcircle" is the limit of the circle through u, v and a point
   receding to infinity: the open half-plane beyond the edge, plus the
   open edge itself.  A finite super-triangle would instead drop every
   Delaunay triangle whose circumcircle reaches one of its corners, such
   as the only triangle of three nearly collinear points.  With the ghosts
   the triangles tile a sphere, so every triangle has three neighbours.

   To insert p: walk from the last triangle created towards p to one whose
   circumcircle contains p, grow that cavity by breadth-first search over
   the neighbours whose circumcircles contain p too, and give each
   boundary edge of the cavity a new triangle with apex p.  Only the cavity
   and its rim are tested.

   The triangulation must not depend on how the cavity was found, only on
   the predicates' verdicts.  Every triangle is stored as a scan over all
   triangles stores it — (u, v, p) with u < v, or (u, p, ghost) — and
   tested with the same predicate and argument order, so each verdict has
   the same bits as in such a scan, also on cocircular input.  In exact
   arithmetic the triangles whose circumcircles contain p form one
   connected cavity, and the walk cannot loop; where rounding makes the
   walk loop or stop short, the live triangles are scanned for one that
   contains p. *)

(* A growable int stack, reused across insertions. *)
type stack = { mutable data : int array; mutable len : int }

let stack () = { data = Array.make 64 0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sort3 a b c =
  let lo = Int.min a (Int.min b c) and hi = Int.max a (Int.max b c) in
  (lo, a + b + c - lo - hi, hi)

let triangles points =
  let n = Array.length points in
  (* Drop exact duplicates: they would make circumcircles degenerate.  A
     point is its own key: [Hashtbl.hash] and [compare] treat -0 as 0, and
     every NaN as one value, on its flat float fields. *)
  let seen = Hashtbl.create n and kept = ref [] in
  Array.iteri
    (fun i (p : Point.t) ->
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        kept := i :: !kept
      end)
    points;
  let keep = List.rev !kept in
  (* [Point.(cross (points.(v) -@ points.(u)) (p -@ points.(u)))] in plain
     floats: the same operations in the same order, without allocating. *)
  let[@inline] side u v (p : Point.t) =
    let pu = points.(u) and pv = points.(v) in
    ((pv.Point.x -. pu.Point.x) *. (p.Point.y -. pu.Point.y))
    -. ((pv.Point.y -. pu.Point.y) *. (p.Point.x -. pu.Point.x))
  in
  (* The seed triangle: the first two points and the first point off
     their line; the points skipped on the way are inserted next.  None
     when fewer than three points are not collinear: no triangle. *)
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
    (* Strictly inside the seed triangle, hence strictly on the inner
       side of every hull edge to come. *)
    let inner = Point.(scale (1. /. 3.) (points.(i0) +@ points.(i1) +@ points.(i2))) in
    (* p lies in the ghost triangle (a, b, ghost)'s "circumcircle". *)
    let beyond a b p =
      let s = side a b p in
      if Float.equal s 0. then Point.(dot (points.(a) -@ p) (points.(b) -@ p)) < 0.
      else Bool.equal (s > 0.) (side a b inner < 0.)
    in
    (* Slot t holds the triangle (a, b, c) = vert.(3t .. 3t+2), c = ghost
       for a ghost, and in nbr.(3t+k) the triangle across the edge opposite
       its k-th vertex.  A dead slot has a = -1 and waits on [free].  m
       points and the ghost tile the sphere with 2m - 2 triangles, and an
       insertion adds at most two, so [cap] slots always suffice. *)
    let cap = (2 * (List.length rest + 3)) - 2 in
    let vert = Array.make (3 * cap) 0 and nbr = Array.make (3 * cap) 0 in
    (* The seed triangle (slot 0) and its three ghosts. *)
    Array.blit [| i0; i1; i2; i0; i1; ghost; i1; i2; ghost; i0; i2; ghost |] 0 vert 0 12;
    Array.blit [| 2; 3; 1; 2; 3; 0; 3; 1; 0; 2; 1; 0 |] 0 nbr 0 12;
    let slots = ref 4 and free = stack () and last = ref 0 in
    let contains t p =
      let a = vert.(3 * t) and b = vert.((3 * t) + 1) and c = vert.((3 * t) + 2) in
      if c = ghost then beyond a b p else Circle.in_circumcircle points.(a) points.(b) points.(c) p
    in
    (* Verdicts of the current insertion [step], each computed once. *)
    let tested = Array.make cap (-1) and inside = Array.make cap false in
    let test step t p =
      if tested.(t) <> step then begin
        tested.(t) <- step;
        inside.(t) <- contains t p
      end;
      inside.(t)
    in
    (* The line through u and v separates p from the third vertex of a
       triangle that turns counter-clockwise ([ccw]) or clockwise.  It
       takes no float argument and captures none, so it boxes nothing. *)
    let[@inline] across ccw u v p =
      let s = side u v p in
      if ccw then s < 0. else s > 0.
    in
    (* Visibility walk: leave a real triangle across an edge whose line
       separates p from the opposite vertex, and a ghost that does not
       contain p across its hull edge; stop at a ghost that contains p, at
       a triangle no edge separates from p, or after [budget] steps. *)
    let rec walk step p t budget =
      let a = vert.(3 * t) and b = vert.((3 * t) + 1) and c = vert.((3 * t) + 2) in
      if budget = 0 then t
      else if c = ghost then if test step t p then t else walk step p nbr.((3 * t) + 2) (budget - 1)
      else begin
        let ccw = side a b points.(c) > 0. in
        if across ccw a b p then walk step p nbr.((3 * t) + 2) (budget - 1)
        else if across ccw b c p then walk step p nbr.(3 * t) (budget - 1)
        else if across ccw c a p then walk step p nbr.((3 * t) + 1) (budget - 1)
        else t
      end
    in
    let scan step p =
      let rec go t =
        if t = !slots then -1
        else if vert.(3 * t) >= 0 && contains t p then begin
          tested.(t) <- step;
          inside.(t) <- true;
          t
        end
        else go (t + 1)
      in
      go 0
    in
    let cavity = stack () and rim = stack () in
    (* pend.(v): the new triangle's half-edge on edge (v, p) still waiting
       for its twin, or -1. *)
    let pend = Array.make (n + 1) (-1) in
    List.iteri
      (fun step i ->
        let p = points.(i) in
        (* [last] died only if a cavity had no rim, which contradictory
           verdicts (overflowing coordinates, slivers) can produce. *)
        let t = if vert.(3 * !last) < 0 then -1 else walk step p !last (!slots - free.len) in
        let start = if t >= 0 && test step t p then t else scan step p in
        if start >= 0 then begin
          cavity.len <- 0;
          rim.len <- 0;
          push cavity start;
          (* Rim entries: the boundary edge (x, y) and the triangle outside. *)
          let head = ref 0 in
          while !head < cavity.len do
            let t = cavity.data.(!head) in
            incr head;
            for k = 0 to 2 do
              let u = nbr.((3 * t) + k) in
              let unseen = tested.(u) <> step in
              if test step u p then (if unseen then push cavity u)
              else begin
                push rim vert.((3 * t) + ((k + 1) mod 3));
                push rim vert.((3 * t) + ((k + 2) mod 3));
                push rim u
              end
            done
          done;
          for j = 0 to cavity.len - 1 do
            let t = cavity.data.(j) in
            vert.(3 * t) <- -1;
            push free t
          done;
          for e = 0 to (rim.len / 3) - 1 do
            let x = rim.data.(3 * e) and y = rim.data.((3 * e) + 1) and u = rim.data.((3 * e) + 2) in
            let t =
              if free.len > 0 then begin
                free.len <- free.len - 1;
                free.data.(free.len)
              end
              else begin
                incr slots;
                !slots - 1
              end
            in
            (* j: the apex p's position in the stored triangle. *)
            let j =
              if x = ghost || y = ghost then begin
                vert.(3 * t) <- (if x = ghost then y else x);
                vert.((3 * t) + 1) <- i;
                vert.((3 * t) + 2) <- ghost;
                1
              end
              else begin
                vert.(3 * t) <- Int.min x y;
                vert.((3 * t) + 1) <- Int.max x y;
                vert.((3 * t) + 2) <- i;
                2
              end
            in
            nbr.((3 * t) + j) <- u;
            let k =
              if vert.(3 * u) <> x && vert.(3 * u) <> y then 0
              else if vert.((3 * u) + 1) <> x && vert.((3 * u) + 1) <> y then 1
              else 2
            in
            nbr.((3 * u) + k) <- t;
            (* The edge (v, p) lies opposite the third vertex.  The rim
               is made of cycles, so it meets each v an even number of
               times, and the new edges on v pair up in turn. *)
            for m = 0 to 2 do
              if m <> j then begin
                let v = vert.((3 * t) + m) and h = (3 * t) + 3 - j - m in
                let q = pend.(v) in
                if q < 0 then pend.(v) <- h
                else begin
                  nbr.(h) <- q / 3;
                  nbr.(q) <- t;
                  pend.(v) <- -1
                end
              end
            done;
            last := t
          done
        end)
      rest;
    (* The order of a scan that prepends each insertion's triangles, in
       descending (u, v), to the survivors: newest apex first.  Three
       stable counting passes put the real triangles in ascending
       (apex rank, u, v) order, and prepending each to the list reverses
       it.  No two live triangles share all three keys. *)
    let rank = Array.make n 0 in
    List.iteri (fun r i -> rank.(i) <- r) (i0 :: i1 :: i2 :: rest);
    let real = stack () in
    for t = 0 to !slots - 1 do
      if vert.(3 * t) >= 0 && vert.((3 * t) + 2) <> ghost then push real t
    done;
    let k = real.len in
    let key_u = Array.make !slots 0 and key_v = Array.make !slots 0 in
    let key_apex = Array.make !slots 0 in
    for j = 0 to k - 1 do
      let t = real.data.(j) in
      key_u.(t) <- vert.(3 * t);
      key_v.(t) <- vert.((3 * t) + 1);
      key_apex.(t) <- rank.(vert.((3 * t) + 2))
    done;
    let order = Array.make k 0 and count = Array.make (n + 1) 0 in
    Counting_sort.pass ~count ~key:key_v real.data order k;
    Counting_sort.pass ~count ~key:key_u order real.data k;
    Counting_sort.pass ~count ~key:key_apex real.data order k;
    let acc = ref [] in
    for j = 0 to k - 1 do
      let t = order.(j) in
      acc := sort3 vert.(3 * t) vert.((3 * t) + 1) vert.((3 * t) + 2) :: !acc
    done;
    !acc

let build ?(range = infinity) points =
  let b = Graph.Builder.create (Array.length points) in
  List.iter
    (fun (x, y, z) ->
      List.iter
        (fun (u, v) ->
          let d = Point.dist points.(u) points.(v) in
          if d <= range then Graph.Builder.add_edge b u v d)
        [ (x, y); (y, z); (x, z) ])
    (triangles points);
  Graph.Builder.build b
