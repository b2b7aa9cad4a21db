open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

(* Strict (distance, index) order, so the neighbour sets are those a full
   scan and sort would pick. *)
let cmp_cand (d1, v1) (d2, v2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare v1 v2

let build ?pool ?(range = infinity) ~k points =
  if k < 1 then invalid_arg "Knn.build: k must be at least 1";
  let n = Array.length points in
  let b = Graph.Builder.create n in
  if n > 1 then begin
    let box = Box.of_points points in
    let span = Float.max (Box.width box) (Box.height box) in
    let cell = if span > 0. then span /. sqrt (float_of_int n) else 1. in
    let grid = Spatial_grid.build ~cell points in
    (* Every candidate lies within the bounding-box diagonal, so a query
       that reaches [cap] sees the whole in-range candidate set. *)
    let diagonal = Float.hypot (Box.width box) (Box.height box) in
    let cap = if Float.is_finite range then Float.min range diagonal else diagonal in
    let gather u r =
      let acc = ref [] in
      (* Query slightly wide — the grid pre-filters on squared distance —
         and keep the exact range test. *)
      Spatial_grid.iter_within grid points.(u) (r *. (1. +. 1e-9)) (fun v ->
          if v <> u then begin
            let d = Point.dist points.(u) points.(v) in
            if d <= range then acc := (d, v) :: !acc
          end);
      !acc
    in
    (* Expanding-radius search: once ≥ k candidates sit at distance ≤ r,
       the k nearest overall do too, so the k smallest of the gathered
       superset equal the brute-force answer. *)
    let nearest u =
      let rec grow r =
        let cands = gather u r in
        let within = List.length (List.filter (fun (d, _) -> d <= r) cands) in
        if within >= k || r >= cap then cands else grow (2. *. r)
      in
      let sorted = List.sort cmp_cand (grow (Float.min cell cap)) in
      List.filteri (fun i _ -> i < k) sorted |> List.map (fun (d, v) -> (v, d))
    in
    let adj = Pool.opt_init pool ~label:"knn" n nearest in
    Array.iteri (fun u vs -> List.iter (fun (v, d) -> Graph.Builder.add_edge b u v d) vs) adj
  end;
  Graph.Builder.build b

let min_connecting_k ?pool ?(range = infinity) ?k_max points =
  let n = Array.length points in
  let k_max = Option.value k_max ~default:(max 1 (n - 1)) in
  let rec search k =
    if k > k_max then None
    else if Adhoc_graph.Components.is_connected (build ?pool ~range ~k points) then Some k
    else search (k + 1)
  in
  if n <= 1 then Some 1 else search 1
