open Adhoc_geom
module Graph = Adhoc_graph.Graph

type partners = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  model : Model.t;
  offsets : int array;
  partners : partners;
}

let num_edges t = Array.length t.offsets - 1

let partners_of_length n : partners = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n

(* Model.in_region's strict test on coordinates: is (x, y) within the
   reach whose square is [r2] of the centre (cx, cy)?  Point.dist2's
   expression, written out so that no float is boxed. *)
let[@inline] near cx cy r2 x y =
  let dx = cx -. x and dy = cy -. y in
  (dx *. dx) +. (dy *. dy) < r2

let grow buf =
  let b = Array.make (2 * Array.length buf) 0 in
  Array.blit buf 0 b 0 (Array.length buf);
  b

let build ?pool model ~points g =
  let m = Graph.num_edges g in
  if m > Int32.to_int Int32.max_int then invalid_arg "Conflict.build: edge ids exceed 31 bits";
  let reach =
    Array.init m (fun e -> Model.reach model ~points ~x:(Graph.edge_u g e) ~y:(Graph.edge_v g e))
  in
  let cell = Array.fold_left Float.max 0. reach in
  (* No reach above 0 (no edges, or only zero-length ones): every open
     guard disk is empty. *)
  if not (cell > 0.) then { model; offsets = Array.make (m + 1) 0; partners = partners_of_length 0 }
  else begin
    let grid = Spatial_grid.build ~cell points in
    let ids = Spatial_grid.slot_ids grid in
    let xs = Spatial_grid.slot_xs grid and ys = Spatial_grid.slot_ys grid in
    let inc_off = Graph.incidence_offsets g in
    let inc_node = Graph.incidence_nodes g and inc_edge = Graph.incidence_edges g in
    (* Phase 1, one pure body per edge e = (u,v) with reach r.  IR(e) is
       the union of the open disks of radius r around u and v; out(e),
       the edges with an endpoint inside it, is reported from one scan of
       the cells that cover both disks.  A node w at (x, y) passes the
       strict test [dist² < r²] only if [|x - ux| < r] holds in floats,
       hence in reals, so [fl (min ux vx - r) <= x <= fl (max ux vx + r)]
       by monotone rounding; [Spatial_grid.column] is the grid's own
       monotone bucketing, so w lies in the box's columns, and likewise
       in its rows.  Each node of the box is tested once against both
       centres, on the grid's flat coordinates.  An edge e' = (w, o) of
       an inside node w is reported at its lowest endpoint inside IR(e):
       at w when w < o or o is outside.  A pair in both out(e) and
       out(e') is kept only by its lower id: e keeps e' when e < e' or
       no endpoint of e lies in IR(e'), so each unordered pair is
       reported exactly once. *)
    let reports e =
      let r = reach.(e) in
      let r2 = r *. r in
      let pu = points.(Graph.edge_u g e) and pv = points.(Graph.edge_v g e) in
      let ux = pu.Point.x and uy = pu.Point.y and vx = pv.Point.x and vy = pv.Point.y in
      let c0 = Spatial_grid.column grid ((if ux < vx then ux else vx) -. r) in
      let c1 = Spatial_grid.column grid ((if ux < vx then vx else ux) +. r) in
      let r0 = Spatial_grid.row grid ((if uy < vy then uy else vy) -. r) in
      let r1 = Spatial_grid.row grid ((if uy < vy then vy else uy) +. r) in
      let buf = ref (Array.make 64 0) and n = ref 0 in
      for row = r0 to r1 do
        for k = Spatial_grid.cell_lo grid ~col:c0 ~row to Spatial_grid.cell_hi grid ~col:c1 ~row - 1 do
          let x = xs.(k) and y = ys.(k) in
          if near ux uy r2 x y || near vx vy r2 x y then begin
            let w = ids.(k) in
            for j = inc_off.(w) to inc_off.(w + 1) - 1 do
              let e' = inc_edge.(j) and o = inc_node.(j) in
              if e' <> e then begin
                let po = points.(o) in
                let ox = po.Point.x and oy = po.Point.y in
                if
                  (w < o || not (near ux uy r2 ox oy || near vx vy r2 ox oy))
                  && (e < e'
                     ||
                     let r' = reach.(e') in
                     let r2' = r' *. r' in
                     not
                       (near x y r2' ux uy || near x y r2' vx vy || near ox oy r2' ux uy
                      || near ox oy r2' vx vy))
                then begin
                  if !n = Array.length !buf then buf := grow !buf;
                  !buf.(!n) <- e';
                  incr n
                end
              end
            done
          end
        done
      done;
      Array.sub !buf 0 !n
    in
    let out = Adhoc_util.Pool.opt_init pool ~label:"conflict" m reports in
    (* Phase 2, sequential counting passes into one CSR structure.  Row
       sizes, and per lower id the number of pairs reported from their
       higher id. *)
    let offsets = Array.make (m + 1) 0 and tail = Array.make m 0 in
    for e = 0 to m - 1 do
      let row = out.(e) in
      offsets.(e + 1) <- offsets.(e + 1) + Array.length row;
      for k = 0 to Array.length row - 1 do
        let e' = row.(k) in
        offsets.(e' + 1) <- offsets.(e' + 1) + 1;
        if e' < e then tail.(e') <- tail.(e') + 1
      done
    done;
    for e = 1 to m do
      offsets.(e) <- offsets.(e) + offsets.(e - 1)
    done;
    (* Every slot is written below: a row's lower and upper parts cover
       it, and its transposed tail is overwritten by the upper part. *)
    let partners = partners_of_length offsets.(m) in
    (* fill.(x): the next free slot of row x. *)
    let fill = Array.init m (fun x -> offsets.(x + 1) - tail.(x)) in
    let push e x =
      partners.{fill.(e)} <- Int32.of_int x;
      fill.(e) <- fill.(e) + 1
    in
    (* Counting-sort transpose of those pairs, in place: row x's last
       [tail.(x)] slots receive the higher ids that reported x.  They lie
       in the part of the row that will hold x's partners above x, so the
       lower parts filled next never reach them. *)
    for e = 0 to m - 1 do
      let row = out.(e) in
      for k = 0 to Array.length row - 1 do
        if row.(k) < e then push row.(k) e
      done
    done;
    Array.blit offsets 0 fill 0 m;
    (* Lower parts: x ascending appends x to the row of each higher
       partner, so every row's partners below it come out ascending.
       Row x's transposed slots are read here, before the upper parts
       overwrite them. *)
    for x = 0 to m - 1 do
      let row = out.(x) in
      for k = 0 to Array.length row - 1 do
        if row.(k) > x then push row.(k) x
      done;
      for k = offsets.(x + 1) - tail.(x) to offsets.(x + 1) - 1 do
        push (Int32.to_int partners.{k}) x
      done
    done;
    (* Upper parts: y ascending reads its finished lower part back and
       appends y to each of those rows, after their own lower parts. *)
    for y = 0 to m - 1 do
      for k = offsets.(y) to fill.(y) - 1 do
        push (Int32.to_int partners.{k}) y
      done
    done;
    { model; offsets; partners }
  end

let set_sizes t = Array.init (num_edges t) (fun e -> t.offsets.(e + 1) - t.offsets.(e))

let neighborhood_bounds t =
  let sizes = set_sizes t in
  Array.mapi
    (fun e size ->
      let bound = ref size in
      for k = t.offsets.(e) to t.offsets.(e + 1) - 1 do
        bound := max !bound sizes.(Int32.to_int t.partners.{k})
      done;
      !bound)
    sizes

let interference_number t = Array.fold_left max 0 (set_sizes t)

(* [marks] is an int array: left polymorphic, each store would test for a
   float array and go through the write barrier. *)
let stamp_row t (marks : int array) e v =
  for k = t.offsets.(e) to t.offsets.(e + 1) - 1 do
    marks.(Int32.to_int t.partners.{k}) <- v
  done

let rec marked_from t marks k hi =
  k < hi && (marks.(Int32.to_int t.partners.{k}) || marked_from t marks (k + 1) hi)

let row_marked t marks e = marked_from t marks t.offsets.(e) t.offsets.(e + 1)

(* Binary search for [x] in the ascending slice [row.{lo} .. row.{hi - 1}]. *)
let rec mem_sorted (row : partners) x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = Int32.to_int row.{mid} in
  y = x || if y < x then mem_sorted row x (mid + 1) hi else mem_sorted row x lo mid

let interfere t e e' = mem_sorted t.partners e' t.offsets.(e) t.offsets.(e + 1)

let greedy_coloring t =
  let m = num_edges t in
  let colors = Array.make m (-1) in
  (* mark.(c) = e exactly when an already-coloured neighbour of [e] holds
     colour c; stamping with the edge id makes the taken-colour scan
     allocation-free and the whole pass O(m·Δ). *)
  let mark = Array.make (m + 1) (-1) in
  let used = ref 0 in
  for e = 0 to m - 1 do
    for k = t.offsets.(e) to t.offsets.(e + 1) - 1 do
      let e' = Int32.to_int t.partners.{k} in
      if colors.(e') >= 0 then mark.(colors.(e')) <- e
    done;
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
