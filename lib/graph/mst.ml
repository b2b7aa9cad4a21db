module Union_find = Adhoc_util.Union_find

(* A bottom-up merge sort of (key, index) pairs held in parallel arrays,
   so every comparison reads two unboxed floats in sequence and calls no
   closure.  Each merge takes from the left run on ties and the runs
   start in index order, which makes the sort stable. *)
let ascending (lens : float array) =
  let k = Array.length lens in
  let src_key = ref (Array.copy lens) and dst_key = ref (Array.make k 0.) in
  let src_idx = ref (Array.init k Fun.id) and dst_idx = ref (Array.make k 0) in
  let width = ref 1 in
  while !width < k do
    let key = !src_key and idx = !src_idx and out_key = !dst_key and out_idx = !dst_idx in
    let w = !width and lo = ref 0 in
    while !lo < k do
      let mid = Int.min k (!lo + w) and hi = Int.min k (!lo + (2 * w)) in
      let i = ref !lo and j = ref mid in
      for o = !lo to hi - 1 do
        if !j >= hi || (!i < mid && Float.compare key.(!i) key.(!j) <= 0) then begin
          out_key.(o) <- key.(!i);
          out_idx.(o) <- idx.(!i);
          incr i
        end
        else begin
          out_key.(o) <- key.(!j);
          out_idx.(o) <- idx.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src_key := out_key;
    src_idx := out_idx;
    dst_key := key;
    dst_idx := idx;
    width := 2 * w
  done;
  !src_idx

let kruskal n (us : int array) (vs : int array) (lens : float array) =
  let k = Array.length lens in
  if Array.length us <> k || Array.length vs <> k then
    invalid_arg "Mst.kruskal: candidate arrays differ in length";
  let order = ascending lens in
  let uf = Union_find.create n in
  let b = Graph.Builder.create n in
  let s = ref 0 in
  while !s < k && Union_find.count uf > 1 do
    let i = order.(!s) in
    if Union_find.union uf us.(i) vs.(i) then Graph.Builder.add_edge b us.(i) vs.(i) lens.(i);
    incr s
  done;
  Graph.Builder.build b

let of_graph g =
  let m = Graph.num_edges g in
  kruskal (Graph.n g) (Array.init m (Graph.edge_u g)) (Array.init m (Graph.edge_v g))
    (Array.init m (Graph.length g))
