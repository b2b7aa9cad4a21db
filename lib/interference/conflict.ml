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

let empty_sets m = Array.make m [||]

let build ?pool model ~points g =
  let m = Graph.num_edges g in
  if m = 0 || Array.length points = 0 then { model; sets = empty_sets m }
  else begin
    let max_len = ref 0. in
    for e = 0 to m - 1 do
      max_len := Float.max !max_len (Graph.length g e)
    done;
    let max_len = !max_len in
    let reach = Model.region_radius model max_len in
    if reach <= 0. then { model; sets = empty_sets m }
    else begin
      let grid = Spatial_grid.build ~cell:reach points in
      (* Any edge interfering with e (in either direction) has an endpoint
         within (1+Δ)·max_len of one of e's endpoints: if e' interferes with
         e then an endpoint of e lies within (1+Δ)·len(e') ≤ reach of an
         endpoint of e'; the converse direction is symmetric.

         Phase 1 (parallel-safe, disjoint writes): higher.(e) = interfering
         partners with id > e, ascending.  Phase 2 assembles the symmetric
         rows sequentially: row e gets its partners below e first (ascending
         outer loop), then its own higher list — and since every lower
         partner < e < every higher partner, each row ends up fully
         ascending. *)
      let module ISet = Set.Make (Int) in
      let partners e =
        let u, v = Graph.endpoints g e in
        let candidates = ref ISet.empty in
        let add_node w =
          Graph.iter_neighbors g w (fun _ id ->
              if id > e then candidates := ISet.add id !candidates)
        in
        Spatial_grid.iter_within grid points.(u) reach add_node;
        Spatial_grid.iter_within grid points.(v) reach add_node;
        let acc = ref [] in
        ISet.iter
          (fun e' -> if Model.interferes model ~points (u, v) (edge_pair g e') then acc := e' :: !acc)
          !candidates;
        Array.of_list (List.rev !acc)
      in
      let higher = Adhoc_util.Pool.opt_init pool ~label:"conflict" m partners in
      let deg = Array.make m 0 in
      for e = 0 to m - 1 do
        deg.(e) <- deg.(e) + Array.length higher.(e);
        Array.iter (fun e' -> deg.(e') <- deg.(e') + 1) higher.(e)
      done;
      let sets = Array.init m (fun e -> Array.make deg.(e) 0) in
      let fill = Array.make m 0 in
      for e = 0 to m - 1 do
        Array.iter
          (fun e' ->
            sets.(e').(fill.(e')) <- e;
            fill.(e') <- fill.(e') + 1)
          higher.(e)
      done;
      for e = 0 to m - 1 do
        Array.iter
          (fun e' ->
            sets.(e).(fill.(e)) <- e';
            fill.(e) <- fill.(e) + 1)
          higher.(e)
      done;
      { model; sets }
    end
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
