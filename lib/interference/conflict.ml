open Adhoc_geom
module Graph = Adhoc_graph.Graph

type t = {
  model : Model.t;
  sets : int array array;
}

let edge_pair g e =
  let u, v = Graph.endpoints g e in
  (u, v)

let build_brute model ~points g =
  let m = Graph.num_edges g in
  let lists = Array.make m [] in
  for e = 0 to m - 1 do
    for e' = e + 1 to m - 1 do
      if Model.interferes model ~points (edge_pair g e) (edge_pair g e') then begin
        lists.(e) <- e' :: lists.(e);
        lists.(e') <- e :: lists.(e')
      end
    done
  done;
  let sets =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        a)
      lists
  in
  { model; sets }

let build ?pool model ~points g =
  let m = Graph.num_edges g in
  let reach e = Model.reach model ~points ~x:(Graph.edge_u g e) ~y:(Graph.edge_v g e) in
  (* Each edge's reach², for the strict [dist² < reach²] tests. *)
  let reach2 = Array.make m 0. in
  let cell = ref 0. in
  for e = 0 to m - 1 do
    let r = reach e in
    reach2.(e) <- r *. r;
    cell := Float.max !cell r
  done;
  (* No reach above 0 (no edges, or only zero-length ones): every open
     guard disk is empty. *)
  if not (!cell > 0.) then { model; sets = Array.make m [||] }
  else begin
    let grid = Spatial_grid.build ~cell:!cell points in
    (* Model.in_region's strict test for edge [x]'s disks: is node [w]
       within [x]'s reach of the centre [c]?  Point.dist2's expression is
       written out, and reach² read here, so that no float is boxed. *)
    let within x (c : Point.t) w =
      let p = points.(w) in
      let dx = c.Point.x -. p.Point.x and dy = c.Point.y -. p.Point.y in
      (dx *. dx) +. (dy *. dy) < reach2.(x)
    in
    (* Phase 1, one pure body per edge e = (u,v).  out(e), the edges with
       an endpoint inside IR(e), is every edge incident to a node w with
       |cw| < r for a centre c ∈ {u, v}, r = Model.reach.  An edge
       e' = (a,b), a < b, is reported only at its first witness (c, w) in
       the order (u,a), (u,b), (v,a), (v,b), so at most three distance
       tests decide it and no scratch is shared.  A pair in both out(e)
       and out(e') is kept only by its lower id: each unordered pair is
       reported exactly once. *)
    let reports e =
      let u = Graph.edge_u g e and v = Graph.edge_v g e in
      let r = reach e in
      let pu = points.(u) and pv = points.(v) in
      let inside c w = within e c w in
      let acc = ref [] in
      (* One visitor per edge; [w] and [from_v] name the witness node and
         its centre for the current call. *)
      let w = ref 0 and from_v = ref false in
      let visit other e' =
        if e' <> e then begin
          let w = !w in
          let a = if w < other then w else other and b = if w < other then other else w in
          let first =
            if !from_v then not (inside pu a) && not (inside pu b) && (w = a || not (inside pv a))
            else w = a || not (inside pu a)
          in
          (* [not (Model.one_way ~src:e' ~dst:e)]: no endpoint of e lies
             in IR(e'). *)
          let pa = points.(a) and pb = points.(b) in
          if
            first
            && (e < e'
               || not (within e' pa u || within e' pb u || within e' pa v || within e' pb v))
          then acc := e' :: !acc
        end
      in
      let scan c is_v =
        Spatial_grid.iter_within grid c r (fun x ->
            if inside c x then begin
              w := x;
              from_v := is_v;
              Graph.iter_neighbors g x visit
            end)
      in
      scan pu false;
      scan pv true;
      Array.of_list !acc
    in
    let out = Adhoc_util.Pool.opt_init pool ~label:"conflict" m reports in
    (* Phase 2, sequential counting passes.  Row sizes, and per lower id
       the number of pairs reported from their higher id. *)
    let deg = Array.make m 0 and tail = Array.make m 0 in
    for e = 0 to m - 1 do
      let row = out.(e) in
      deg.(e) <- deg.(e) + Array.length row;
      for k = 0 to Array.length row - 1 do
        let e' = row.(k) in
        deg.(e') <- deg.(e') + 1;
        if e' < e then tail.(e') <- tail.(e') + 1
      done
    done;
    let sets = Array.init m (fun e -> Array.make deg.(e) 0) in
    let fill = Array.init m (fun x -> deg.(x) - tail.(x)) in
    let push e x =
      sets.(e).(fill.(e)) <- x;
      fill.(e) <- fill.(e) + 1
    in
    (* Counting-sort transpose of those pairs, in place: row x's last
       [tail.(x)] cells receive the higher ids that reported x.  They lie
       in the part of the row that will hold x's partners above x, so the
       lower parts filled next never reach them. *)
    for e = 0 to m - 1 do
      let row = out.(e) in
      for k = 0 to Array.length row - 1 do
        if row.(k) < e then push row.(k) e
      done
    done;
    Array.fill fill 0 m 0;
    (* Lower parts: x ascending appends x to the row of each higher
       partner, so every row's partners below it come out ascending.
       Row x's transposed cells are read here, before the upper parts
       overwrite them. *)
    for x = 0 to m - 1 do
      let row = out.(x) in
      for k = 0 to Array.length row - 1 do
        if row.(k) > x then push row.(k) x
      done;
      let row = sets.(x) in
      for k = deg.(x) - tail.(x) to deg.(x) - 1 do
        push row.(k) x
      done
    done;
    (* Upper parts: y ascending reads its finished lower part back and
       appends y to each of those rows, after their own lower parts. *)
    for y = 0 to m - 1 do
      let row = sets.(y) in
      for k = 0 to fill.(y) - 1 do
        push row.(k) y
      done
    done;
    { model; sets }
  end

let set_sizes t = Array.map Array.length t.sets

let neighborhood_bounds t =
  let sizes = Array.map Array.length t.sets in
  Array.mapi
    (fun e neighbors -> Array.fold_left (fun acc e' -> max acc sizes.(e')) sizes.(e) neighbors)
    t.sets

let interference_number t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.sets

(* Binary search for [x] in the ascending slice [row.(lo) .. row.(hi - 1)]. *)
let rec mem_sorted row x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = row.(mid) in
  y = x || if y < x then mem_sorted row x (mid + 1) hi else mem_sorted row x lo mid

let interfere t e e' =
  let row = t.sets.(e) in
  mem_sorted row e' 0 (Array.length row)

let adjacency t = t.sets

let greedy_coloring t =
  let m = Array.length t.sets in
  let colors = Array.make m (-1) in
  (* mark.(c) = e exactly when an already-coloured neighbour of [e] holds
     colour c; stamping with the edge id makes the taken-colour scan
     allocation-free and the whole pass O(m·Δ). *)
  let mark = Array.make (m + 1) (-1) in
  let used = ref 0 in
  for e = 0 to m - 1 do
    Array.iter (fun e' -> if colors.(e') >= 0 then mark.(colors.(e')) <- e) t.sets.(e);
    let c = ref 0 in
    while mark.(!c) = e do
      incr c
    done;
    colors.(e) <- !c;
    if !c + 1 > !used then used := !c + 1
  done;
  (colors, !used)

let independent t ids =
  let rec check = function
    | [] -> true
    | e :: rest -> List.for_all (fun e' -> not (interfere t e e')) rest && check rest
  in
  check ids

let max_independent_greedy t candidates =
  let sorted = List.sort_uniq Int.compare candidates in
  let chosen = ref [] in
  List.iter
    (fun e -> if List.for_all (fun c -> not (interfere t e c)) !chosen then chosen := e :: !chosen)
    sorted;
  List.rev !chosen
