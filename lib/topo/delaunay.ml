open Adhoc_geom
module Graph = Adhoc_graph.Graph

(* Bowyer–Watson: maintain the triangle list; for each inserted point,
   remove every triangle whose circumcircle contains it, then re-triangulate
   the star-shaped cavity from its boundary edges.  O(n) triangles scanned
   per insertion — O(n²) total, adequate for the experiment sizes.

   Each convex-hull edge (u, v) carries a ghost triangle (u, v, ghost).
   Its "circumcircle" is the limit of the circle through u, v and a point
   receding to infinity: the open half-plane beyond the edge, plus the
   open edge itself.  A finite super-triangle would instead drop every
   Delaunay triangle whose circumcircle reaches one of its corners, such
   as the only triangle of three nearly collinear points. *)

type tri = { a : int; b : int; c : int }  (* c is the ghost in ghost triangles *)

let tri_edges t = [ (t.a, t.b); (t.b, t.c); (t.a, t.c) ]

let norm_edge (u, v) = if u < v then (u, v) else (v, u)

let triangles points =
  let n = Array.length points in
  (* Drop exact duplicates: they would make circumcircles degenerate. *)
  let seen = Hashtbl.create n in
  let keep =
    Array.to_list
      (Array.mapi
         (fun i (p : Point.t) ->
           let key = (p.Point.x, p.Point.y) in
           if Hashtbl.mem seen key then None
           else begin
             Hashtbl.add seen key ();
             Some i
           end)
         points)
  in
  let keep = List.filter_map Fun.id keep in
  let side u v p = Point.(cross (points.(v) -@ points.(u)) (p -@ points.(u))) in
  (* The seed triangle: the first two points and the first point off
     their line; the points skipped on the way are inserted next.  None
     when fewer than three points are not collinear: no triangle. *)
  let seed = function
    | i0 :: i1 :: others ->
        let rec find skipped = function
          | [] -> None
          | k :: rest when not (Float.equal (side i0 i1 points.(k)) 0.) ->
              Some (i0, i1, k, List.rev_append skipped rest)
          | k :: rest -> find (k :: skipped) rest
        in
        find [] others
    | _ -> None
  in
  match seed keep with
  | None -> []
  | Some (i0, i1, i2, rest) ->
    let ghost = n in
    (* Strictly inside the seed triangle, hence strictly on the inner
       side of every hull edge to come. *)
    let inner = Point.(scale (1. /. 3.) (points.(i0) +@ points.(i1) +@ points.(i2))) in
    (* p lies in the ghost triangle's "circumcircle". *)
    let beyond t p =
      let s = side t.a t.b p in
      if Float.equal s 0. then Point.(dot (points.(t.a) -@ p) (points.(t.b) -@ p)) < 0.
      else Bool.equal (s > 0.) (side t.a t.b inner < 0.)
    in
    (* Ghost triangles are kept apart, so the real ones are scanned with
       the plain circumcircle test. *)
    let tris = ref [ { a = i0; b = i1; c = i2 } ] in
    let ghosts =
      ref
        [
          { a = i0; b = i1; c = ghost }; { a = i1; b = i2; c = ghost }; { a = i0; b = i2; c = ghost };
        ]
    in
    List.iter
      (fun i ->
        let p = points.(i) in
        let bad, good =
          List.partition
            (fun t -> Circle.in_circumcircle points.(t.a) points.(t.b) points.(t.c) p)
            !tris
        in
        let bad_ghosts, good_ghosts = List.partition (fun t -> beyond t p) !ghosts in
        (* Boundary edges of the cavity: edges of bad triangles that are not
           shared between two bad triangles. *)
        let tally = Hashtbl.create 16 in
        List.iter
          (fun t ->
            List.iter
              (fun e ->
                let e = norm_edge e in
                Hashtbl.replace tally e (1 + Option.value ~default:0 (Hashtbl.find_opt tally e)))
              (tri_edges t))
          (bad_ghosts @ bad);
        (* Sorted-key traversal: the retriangulated cavity is a set, but the
           list order decides edge ids downstream — keep it a function of
           the tally's contents, not of Hashtbl internals.  The ghost, the
           largest index, is always a key's second vertex. *)
        let fresh, fresh_ghosts =
          Adhoc_util.Det.fold_sorted
            (fun (u, v) count (fresh, fresh_ghosts) ->
              if count <> 1 then (fresh, fresh_ghosts)
              else if v = ghost then (fresh, { a = u; b = i; c = ghost } :: fresh_ghosts)
              else ({ a = u; b = v; c = i } :: fresh, fresh_ghosts))
            tally ([], [])
        in
        tris := fresh @ good;
        ghosts := fresh_ghosts @ good_ghosts)
      rest;
    List.map
      (fun t ->
        let s = List.sort Int.compare [ t.a; t.b; t.c ] in
        match s with [ a; b; c ] -> (a, b, c) | _ -> assert false)
      !tris

let build ?(range = infinity) points =
  let b = Graph.Builder.create (Array.length points) in
  List.iter
    (fun (x, y, z) ->
      List.iter
        (fun (u, v) ->
          let d = Point.dist points.(u) points.(v) in
          if d <= range then Graph.Builder.add_edge b u v d)
        [ (x, y); (y, z); (x, z) ])
    (triangles points);
  Graph.Builder.build b
