open Adhoc_geom
module Graph = Adhoc_graph.Graph

let build ?pool ~range points =
  if range < 0. then invalid_arg "Udg.build: negative range";
  let n = Array.length points in
  let b = Graph.Builder.create n in
  if n > 1 && Float.is_finite range && range > 0. then begin
    (* Query slightly wide (the grid pre-filters on squared distance, which
       can round an exactly-range-length edge away), then test exactly. *)
    let query = range *. (1. +. 1e-9) in
    let neighbors grid u =
      let acc = ref [] in
      Spatial_grid.iter_within grid points.(u) query (fun v ->
          if v > u && Point.dist points.(u) points.(v) <= range then
            acc := (v, Point.dist points.(u) points.(v)) :: !acc);
      (* Canonical order — ascending neighbour id — so the edge list does
         not depend on grid iteration order (global or tile-local). *)
      List.sort (fun (a, _) (c, _) -> Int.compare a c) !acc
    in
    let adj = Shard.map_nodes ?pool ~label:"udg" ~range points ~f:neighbors in
    (* Sequential merge in node order: edge ids match the sequential build. *)
    Array.iteri (fun u vs -> List.iter (fun (v, d) -> Graph.Builder.add_edge b u v d) vs) adj
  end
  else
    (* [Shard.map_nodes] needs a positive, finite range: at range 0 (only
       coincident nodes meet) or infinity, scan every pair. *)
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let d = Point.dist points.(u) points.(v) in
        if d <= range then Graph.Builder.add_edge b u v d
      done
    done;
  Graph.Builder.build b

let critical_range points = Euclidean_mst.longest_edge points
