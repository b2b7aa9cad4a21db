open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

type t = {
  alpha : float;
  radii : float array;
  graph : Graph.t;
  asymmetric : Graph.t;
}

(* Every cone of angle alpha apexed at u contains one of the given angles
   iff the largest angular gap between consecutive neighbours is < alpha.
   Only the multiset of angle values matters, so callers may supply them
   in any order. *)
let gaps_covered ~alpha angles =
  match angles with
  | [] -> false
  | [ _ ] -> alpha > 2. *. Float.pi -. 1e-12
  | _ ->
      let sorted = List.sort Float.compare angles in
      let first = List.hd sorted in
      let rec max_gap prev acc = function
        | [] -> Float.max acc (first +. (2. *. Float.pi) -. prev)
        | a :: rest -> max_gap a (Float.max acc (a -. prev)) rest
      in
      max_gap first 0. (List.tl sorted) < alpha

let build ?pool ~alpha ~range points =
  if alpha <= 0. || alpha > 2. *. Float.pi then invalid_arg "Cbtc.build: bad alpha";
  if range < 0. then invalid_arg "Cbtc.build: negative range";
  let n = Array.length points in
  let grid =
    if n > 1 then begin
      let box = Box.of_points points in
      let span = Float.max (Box.width box) (Box.height box) in
      let cell = if span > 0. then span /. sqrt (float_of_int n) else 1. in
      Some (Spatial_grid.build ~cell points, Float.hypot (Box.width box) (Box.height box))
    end
    else None
  in
  (* Grid queries go slightly wide (the grid pre-filters on squared
     distance) and re-test exactly, so every candidate set matches the
     brute scan's. *)
  let iter_within_exact u r f =
    match grid with
    | Some (g, diagonal) ->
        let q = Float.min r diagonal in
        Spatial_grid.iter_within g points.(u) (q *. (1. +. 1e-9)) (fun v ->
            if v <> u && Point.dist points.(u) points.(v) <= r then f v)
    | None ->
        for v = 0 to n - 1 do
          if v <> u && Point.dist points.(u) points.(v) <= r then f v
        done
  in
  let coverage u r =
    let angles = ref [] in
    iter_within_exact u r (fun v -> angles := Point.angle_of points.(u) points.(v) :: !angles);
    gaps_covered ~alpha !angles
  in
  (* Per node: grow the radius through the sorted neighbour distances until
     the cone condition holds; fall back to maximum power. *)
  let radius_of u =
    let dists = ref [] in
    iter_within_exact u range (fun v -> dists := Point.dist points.(u) points.(v) :: !dists);
    let rec grow = function
      | [] -> range
      | d :: rest -> if coverage u d then d else grow rest
    in
    grow (List.sort Float.compare !dists)
  in
  let radii = Pool.opt_init pool ~label:"cbtc/radii" n radius_of in
  (* Candidate pairs per node, ascending v to keep the sequential edge
     order; edges only exist at distance ≤ range ≥ every radius. *)
  let pairs u =
    let acc = ref [] in
    iter_within_exact u range (fun v ->
        if v > u then begin
          let d = Point.dist points.(u) points.(v) in
          let s = d <= Float.min radii.(u) radii.(v) in
          let a = d <= Float.max radii.(u) radii.(v) in
          if s || a then acc := (v, d, s, a) :: !acc
        end);
    List.sort (fun (v1, _, _, _) (v2, _, _, _) -> Int.compare v1 v2) !acc
  in
  let adj = Pool.opt_init pool ~label:"cbtc/links" n pairs in
  let sym = Graph.Builder.create n in
  let asym = Graph.Builder.create n in
  Array.iteri
    (fun u vs ->
      List.iter
        (fun (v, d, s, a) ->
          if s then Graph.Builder.add_edge sym u v d;
          if a then Graph.Builder.add_edge asym u v d)
        vs)
    adj;
  { alpha; radii; graph = Graph.Builder.build sym; asymmetric = Graph.Builder.build asym }
