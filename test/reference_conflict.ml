(* The O(m²) conflict graph: every pair of edges tested against the
   model, then one CSR structure from the sorted rows.  The oracle that
   Conflict.build's grid scan and counting passes must equal, row for
   row. *)

module Graph = Adhoc_graph.Graph
module Model = Adhoc_interference.Model
module Conflict = Adhoc_interference.Conflict

(* One CSR structure from per-edge ascending rows. *)
let of_rows model rows : Conflict.t =
  let m = Array.length rows in
  let offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    offsets.(e + 1) <- offsets.(e) + Array.length rows.(e)
  done;
  let partners = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout offsets.(m) in
  Array.iteri
    (fun e row -> Array.iteri (fun k x -> partners.{offsets.(e) + k} <- Int32.of_int x) row)
    rows;
  { model; offsets; partners }

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
  of_rows model
    (Array.map
       (fun l ->
         let a = Array.of_list l in
         Array.sort Int.compare a;
         a)
       lists)
