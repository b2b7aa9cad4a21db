module Pool = Adhoc_util.Pool

let check_compatible sub base =
  if Graph.n sub <> Graph.n base then invalid_arg "Stretch: node count mismatch"

let per_edge_profile ?pool ~sub ~base ~cost () =
  check_compatible sub base;
  let n = Graph.n base in
  (* Group base edges by endpoint so each Dijkstra run in [sub] is reused.
     Flat-accessor scan: no edge records materialised. *)
  let by_src = Array.make n [] in
  for id = Graph.num_edges base - 1 downto 0 do
    by_src.(Graph.edge_u base id) <-
      (id, Graph.edge_v base id, Graph.length base id) :: by_src.(Graph.edge_u base id)
  done;
  let ratios = Array.make (Graph.num_edges base) nan in
  (* Each edge id is grouped under exactly one source, so the per-source
     bodies write disjoint cells. *)
  Pool.opt_for pool ~label:"stretch/profile" n (fun u ->
      if by_src.(u) <> [] then begin
        let r = Dijkstra.run sub ~cost ~src:u in
        List.iter
          (fun (id, v, len) ->
            let c = cost len in
            ratios.(id) <- (if Float.equal c 0. then 1. else r.Dijkstra.dist.(v) /. c))
          by_src.(u)
      end);
  ratios

let over_base_edges ?pool ~sub ~base ~cost () =
  let ratios = per_edge_profile ?pool ~sub ~base ~cost () in
  Array.fold_left Float.max 1. ratios

let vs_euclidean ?pool ~sub ~points () =
  let n = Graph.n sub in
  if Array.length points <> n then invalid_arg "Stretch.vs_euclidean: size mismatch";
  (* Per-source worsts in parallel, folded on the caller in index order —
     the same Float.max chain as the sequential loop. *)
  let per_src u =
    let r = Dijkstra.run sub ~cost:Cost.length ~src:u in
    let worst = ref 1. in
    for v = u + 1 to n - 1 do
      let d = Adhoc_geom.Point.dist points.(u) points.(v) in
      if d > 0. then worst := Float.max !worst (r.Dijkstra.dist.(v) /. d)
    done;
    !worst
  in
  match pool with
  | Some p -> Pool.map_reduce p ~label:"stretch/euclidean" ~n ~map:per_src ~init:1. ~fold:Float.max ()
  | None ->
      let worst = ref 1. in
      for u = 0 to n - 1 do
        worst := Float.max !worst (per_src u)
      done;
      !worst
