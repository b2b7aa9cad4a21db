open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

let build ?pool ~theta ~range points =
  if not (theta > 0. && Float.is_finite theta) then
    invalid_arg "Theta_graph.build: theta must be positive and finite";
  if range < 0. then invalid_arg "Theta_graph.build: negative range";
  let n = Array.length points in
  let sectors = Sector.count theta in
  (* Per-sector argmin under the strict (projection, index) order: the
     winner is unique, so the candidate iteration order (grid, tile-local
     grid or scan) does not matter. *)
  let select u iter_candidates =
    let best = Array.make sectors (-1) in
    let best_proj = Array.make sectors infinity in
    let consider v =
      if v <> u then begin
        let d = Point.dist points.(u) points.(v) in
        if d <= range then begin
          let s = Sector.index ~theta ~apex:points.(u) points.(v) in
          (* Projection of uv onto the sector bisector. *)
          let bis = Sector.central_angle ~theta s in
          let dirx = cos bis and diry = sin bis in
          let w = points.(v) in
          let u' = points.(u) in
          let proj = ((w.Point.x -. u'.Point.x) *. dirx) +. ((w.Point.y -. u'.Point.y) *. diry) in
          let c = Float.compare proj best_proj.(s) in
          if c < 0 || (c = 0 && (best.(s) = -1 || v < best.(s))) then begin
            best_proj.(s) <- proj;
            best.(s) <- v
          end
        end
      end
    in
    iter_candidates consider;
    best
  in
  let best =
    if n > 1 && Float.is_finite range && range > 0. then begin
      (* Query slightly wide: the grid pre-filters on squared distance;
         [consider] applies the exact range test. *)
      let query = range *. (1. +. 1e-9) in
      Shard.map_nodes ?pool ~label:"theta-graph" ~range points ~f:(fun grid u ->
          select u (Spatial_grid.iter_within grid points.(u) query))
    end
    else
      Pool.opt_init pool ~label:"theta-graph" n (fun u ->
          select u (fun consider ->
              for v = 0 to n - 1 do
                consider v
              done))
  in
  let b = Graph.Builder.create n in
  Array.iteri
    (fun u bu ->
      Array.iter
        (fun v -> if v >= 0 then Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v)))
        bu)
    best;
  Graph.Builder.build b
