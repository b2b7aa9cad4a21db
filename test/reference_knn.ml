(* The kNN graph by a full scan and sort per node, O(n² log n): the
   oracle that Knn.build's expanding grid search must equal bit for
   bit. *)

module Point = Adhoc_geom.Point
module Graph = Adhoc_graph.Graph

(* Strict (distance, index) order — Knn.build's tie-break. *)
let cmp_cand (d1, v1) (d2, v2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare v1 v2

let nearest_k ~range points u k =
  let n = Array.length points in
  (* Collect candidates within range, then select the k closest by a partial
     sort — n is small enough that a full sort is fine. *)
  let candidates = ref [] in
  for v = 0 to n - 1 do
    if v <> u then begin
      let d = Point.dist points.(u) points.(v) in
      if d <= range then candidates := (d, v) :: !candidates
    end
  done;
  let sorted = List.sort cmp_cand !candidates in
  List.filteri (fun i _ -> i < k) sorted |> List.map snd

let build_brute ?(range = infinity) ~k points =
  if k < 1 then invalid_arg "Knn.build: k must be at least 1";
  let n = Array.length points in
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    List.iter
      (fun v -> Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v)))
      (nearest_k ~range points u k)
  done;
  Graph.Builder.build b
