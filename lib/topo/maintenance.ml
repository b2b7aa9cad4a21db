open Adhoc_geom
module Graph = Adhoc_graph.Graph

type t = {
  theta : float;
  range : float;
  points : Point.t array;  (* mutated in place by [move] *)
  selections : int array array;
  admitted : (int * int) list array;
  mutable graph : Graph.t;
  mutable last_affected : int;
}

let create ~theta ~range points =
  let alg = Theta_alg.build ~theta ~range points in
  let t =
    {
      theta;
      range;
      points = Array.copy points;
      selections = Array.map Array.copy alg.Theta_alg.selections;
      admitted = Array.copy alg.Theta_alg.admitted;
      graph = Theta_alg.overlay alg;
      last_affected = 0;
    }
  in
  t

let overlay t = t.graph

let points t = Array.copy t.points

let move t i new_pos =
  if i < 0 || i >= Array.length t.points then invalid_arg "Maintenance.move: node out of range";
  let old_pos = t.points.(i) in
  t.points.(i) <- new_pos;
  (* Nodes whose in-range neighbourhood changed: near the old or the new
     position (plus the moved node itself).  Dense membership arrays walked
     in ascending node order keep the repair deterministic — no reduction
     here may depend on Hashtbl traversal order. *)
  let n = Array.length t.points in
  let affected_select = Array.make n false in
  affected_select.(i) <- true;
  Array.iteri
    (fun u p ->
      if u <> i && (Point.dist p old_pos <= t.range || Point.dist p new_pos <= t.range) then
        affected_select.(u) <- true)
    t.points;
  let every_node consider =
    for v = 0 to n - 1 do
      consider v
    done
  in
  for u = 0 to n - 1 do
    if affected_select.(u) then
      t.selections.(u) <- Yao.select ~theta:t.theta ~range:t.range t.points u every_node
  done;
  (* Nodes whose selector set may have changed: within range of any
     re-selected node (at either endpoint of its move radius). *)
  let affected_admit = Array.make n false in
  for u = 0 to n - 1 do
    if affected_select.(u) then begin
      affected_admit.(u) <- true;
      Array.iteri
        (fun v p ->
          if Point.dist p t.points.(u) <= t.range || (u = i && Point.dist p old_pos <= t.range)
          then affected_admit.(v) <- true)
        t.points
    end
  done;
  let count = ref 0 in
  for v = 0 to n - 1 do
    if affected_admit.(v) then begin
      let selectors = ref [] in
      for u = 0 to n - 1 do
        if Array.exists (fun w -> w = v) t.selections.(u) then selectors := u :: !selectors
      done;
      t.admitted.(v) <- Theta_alg.admit ~theta:t.theta t.points v !selectors;
      incr count
    end
  done;
  t.last_affected <- !count;
  t.graph <- Theta_alg.assemble t.points t.admitted

let last_affected t = t.last_affected
