open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

let closer points u a b =
  let c = Float.compare (Point.dist2 points.(u) points.(a)) (Point.dist2 points.(u) points.(b)) in
  c < 0 || (c = 0 && a < b)

(* Each call allocates its own [best], so nodes may select on different
   domains.  The per-sector argmin is a strict (distance, index) total
   order, so the result is independent of candidate order — which also
   makes it tile-independent under [Shard.map_nodes]. *)
let select ~theta ~range points u iter_candidates =
  let best = Array.make (Sector.count theta) (-1) in
  let consider v =
    if v <> u && Point.dist points.(u) points.(v) <= range then begin
      let s = Sector.index ~theta ~apex:points.(u) points.(v) in
      if best.(s) = -1 || closer points u v best.(s) then best.(s) <- v
    end
  in
  iter_candidates consider;
  let chosen = Array.to_list best in
  let chosen = List.filter (fun v -> v >= 0) chosen in
  Array.of_list (List.sort_uniq Int.compare chosen)

let selections ?pool ~theta ~range points =
  if not (theta > 0. && Float.is_finite theta) then
    invalid_arg "Yao.selections: theta must be positive and finite";
  if range < 0. then invalid_arg "Yao.selections: negative range";
  let n = Array.length points in
  if n > 1 && Float.is_finite range && range > 0. then begin
    (* Query slightly wide: the grid pre-filters on squared distance, which
       can round an exactly-range-length candidate away; [select] applies
       the exact range test. *)
    let query = range *. (1. +. 1e-9) in
    Shard.map_nodes ?pool ~label:"yao" ~range points ~f:(fun grid u ->
        select ~theta ~range points u (Spatial_grid.iter_within grid points.(u) query))
  end
  else
    Pool.opt_init pool ~label:"yao" n (fun u ->
        select ~theta ~range points u (fun consider ->
            for v = 0 to n - 1 do
              consider v
            done))

let graph ?pool ~theta ~range points =
  let sel = selections ?pool ~theta ~range points in
  let b = Graph.Builder.create (Array.length points) in
  Array.iteri
    (fun u vs ->
      Array.iter (fun v -> Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v))) vs)
    sel;
  Graph.Builder.build b
