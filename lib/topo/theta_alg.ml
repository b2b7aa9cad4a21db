open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

type t = {
  theta : float;
  range : float;
  points : Point.t array;
  selections : int array array;
  admitted : (int * int) list array;
  overlay : Graph.t;
}

type messages = { position : int; neighborhood : int; connection : int }

let degree_bound ~theta = int_of_float (Float.ceil (4. *. Float.pi /. theta))

(* The per-sector argmin under Yao's strict (distance, index) order is
   independent of list order, so nodes may admit on different domains. *)
let admit ~theta points u selectors =
  let sectors = Sector.count theta in
  let best = Array.make sectors (-1) in
  List.iter
    (fun v ->
      let s = Sector.index ~theta ~apex:points.(u) points.(v) in
      if best.(s) = -1 || Yao.closer points u v best.(s) then best.(s) <- v)
    selectors;
  let acc = ref [] in
  for s = sectors - 1 downto 0 do
    if best.(s) >= 0 then acc := (best.(s), s) :: !acc
  done;
  !acc

let assemble points admitted =
  let b = Graph.Builder.create (Array.length points) in
  Array.iteri
    (fun u vs ->
      List.iter (fun (v, _) -> Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v))) vs)
    admitted;
  Graph.Builder.build b

let build ?pool ~theta ~range points =
  if not (theta > 0. && theta <= 2. *. Float.pi) then invalid_arg "Theta_alg.build: bad theta";
  let n = Array.length points in
  let selections = Yao.selections ?pool ~theta ~range points in
  (* Invert the selection relation: incoming.(u) = nodes v with u ∈ N(v).
     Sequential — the scatter order fixes the incoming lists. *)
  let incoming = Array.make n [] in
  Array.iteri
    (fun v targets -> Array.iter (fun u -> incoming.(u) <- v :: incoming.(u)) targets)
    selections;
  let admitted =
    Pool.opt_init pool ~label:"theta-alg/admit" n (fun u -> admit ~theta points u incoming.(u))
  in
  { theta; range; points; selections; admitted; overlay = assemble points admitted }

let overlay t = t.overlay

let messages t =
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  {
    position = Array.length t.points;
    neighborhood = sum Array.length t.selections;
    connection = sum List.length t.admitted;
  }

let in_yao t u v = Array.exists (fun w -> w = v) t.selections.(u)
