type t = { center : Point.t; radius : float }

let make center radius = { center; radius }

let contains c p = Point.dist2 c.center p < c.radius *. c.radius

let contains_closed c p = Point.dist2 c.center p <= c.radius *. c.radius

let intersects a b =
  let d = a.radius +. b.radius in
  Point.dist2 a.center b.center < d *. d

let diametral u v = { center = Point.midpoint u v; radius = Point.dist u v /. 2. }

let circumcircle a b c =
  let open Point in
  let d = 2. *. ((a.x *. (b.y -. c.y)) +. (b.x *. (c.y -. a.y)) +. (c.x *. (a.y -. b.y))) in
  if Float.abs d < 1e-12 then None
  else begin
    let a2 = norm2 a and b2 = norm2 b and c2 = norm2 c in
    let ux = ((a2 *. (b.y -. c.y)) +. (b2 *. (c.y -. a.y)) +. (c2 *. (a.y -. b.y))) /. d in
    let uy = ((a2 *. (c.x -. b.x)) +. (b2 *. (a.x -. c.x)) +. (c2 *. (b.x -. a.x))) /. d in
    let center = make ux uy in
    Some { center; radius = dist center a }
  end

let in_circumcircle a b c p =
  let open Point in
  (* Orientation of abc: [cross (b -@ a) (c -@ a)] in plain floats, the
     same operations in the same order, with no boxed temporary. *)
  let orient = ((b.x -. a.x) *. (c.y -. a.y)) -. ((b.y -. a.y) *. (c.x -. a.x)) in
  let ax = a.x -. p.x and ay = a.y -. p.y in
  let bx = b.x -. p.x and by = b.y -. p.y in
  let cx = c.x -. p.x and cy = c.y -. p.y in
  let det =
    ((ax *. ax) +. (ay *. ay)) *. ((bx *. cy) -. (cx *. by))
    -. (((bx *. bx) +. (by *. by)) *. ((ax *. cy) -. (cx *. ay)))
    +. (((cx *. cx) +. (cy *. cy)) *. ((ax *. by) -. (bx *. ay)))
  in
  if orient > 0. then det > 0. else det < 0.
