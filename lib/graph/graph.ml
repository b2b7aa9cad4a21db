(* Flat struct-of-arrays graph.

   Edges live in three parallel arrays (endpoints canonicalised [u < v],
   plus length); adjacency is CSR — [adj_off] prefix offsets into
   [adj_nbr]/[adj_eid].  The builder appends into growable flat arrays
   with no per-add set lookup; [build] dedups once.  Two stable counting
   passes over the insertion log, by v and then by u, put it in
   ((u, v), insertion-index) order in O(k + n) for k insertions on n
   nodes; the first insertion of each pair is kept, so edge ids match the
   old insert-time-dedup semantics exactly while the hot path stays
   allocation-free. *)

type edge = { u : int; v : int; len : float }

type t = {
  n : int;
  m : int;
  eu : int array;  (* endpoint u of edge id, u < v *)
  ev : int array;
  elen : float array;
  adj_off : int array;  (* length n + 1 *)
  adj_nbr : int array;  (* length 2m; neighbours of u at [adj_off.(u) .. adj_off.(u+1)) *)
  adj_eid : int array;  (* edge id parallel to [adj_nbr] *)
}

module Builder = struct
  type t = {
    bn : int;
    mutable bu : int array;
    mutable bv : int array;
    mutable blen : float array;
    mutable count : int;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    { bn = n; bu = [||]; bv = [||]; blen = [||]; count = 0 }

  let grow b =
    let cap = max 8 (2 * Array.length b.bu) in
    let bu = Array.make cap 0 and bv = Array.make cap 0 and blen = Array.make cap 0. in
    Array.blit b.bu 0 bu 0 b.count;
    Array.blit b.bv 0 bv 0 b.count;
    Array.blit b.blen 0 blen 0 b.count;
    b.bu <- bu;
    b.bv <- bv;
    b.blen <- blen

  (* O(count) scan over the flat arrays; dedup proper happens in [build].
     Only test oracles call this — the hot path never does. *)
  let mem b u v =
    let u, v = if u < v then (u, v) else (v, u) in
    let rec scan i = i < b.count && ((b.bu.(i) = u && b.bv.(i) = v) || scan (i + 1)) in
    scan 0

  let add_edge b u v len =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg "Graph.Builder.add_edge: node out of range";
    if len < 0. then invalid_arg "Graph.Builder.add_edge: negative length";
    if u <> v then begin
      if b.count = Array.length b.bu then grow b;
      let u, v = if u < v then (u, v) else (v, u) in
      b.bu.(b.count) <- u;
      b.bv.(b.count) <- v;
      b.blen.(b.count) <- len;
      b.count <- b.count + 1
    end

  let build b =
    let k = b.count in
    (* Order the insertion log by ((u, v), insertion index): by v, then
       stably by u.  Duplicates become adjacent runs whose first element
       is the earliest insertion, which is the one that keeps its length
       ("first wins", matching the old insert-time dedup). *)
    let perm = Array.init k Fun.id and by_v = Array.make k 0 in
    let count = Array.make (b.bn + 1) 0 in
    Adhoc_util.Counting_sort.pass ~count ~key:b.bv perm by_v k;
    Adhoc_util.Counting_sort.pass ~count ~key:b.bu by_v perm k;
    let keep = Array.make k false in
    let m = ref 0 in
    for s = 0 to k - 1 do
      let i = perm.(s) in
      let dup =
        s > 0
        &&
        let p = perm.(s - 1) in
        b.bu.(p) = b.bu.(i) && b.bv.(p) = b.bv.(i)
      in
      if not dup then begin
        keep.(i) <- true;
        incr m
      end
    done;
    let m = !m in
    (* Edge ids in insertion order of the kept (first) occurrences: an
       ascending scan over the insertion log. *)
    let eu = Array.make m 0 and ev = Array.make m 0 and elen = Array.make m 0. in
    let id = ref 0 in
    for i = 0 to k - 1 do
      if keep.(i) then begin
        eu.(!id) <- b.bu.(i);
        ev.(!id) <- b.bv.(i);
        elen.(!id) <- b.blen.(i);
        incr id
      end
    done;
    let adj_off = Array.make (b.bn + 1) 0 in
    for e = 0 to m - 1 do
      adj_off.(eu.(e) + 1) <- adj_off.(eu.(e) + 1) + 1;
      adj_off.(ev.(e) + 1) <- adj_off.(ev.(e) + 1) + 1
    done;
    for u = 1 to b.bn do
      adj_off.(u) <- adj_off.(u) + adj_off.(u - 1)
    done;
    let fill = Array.copy adj_off in
    let adj_nbr = Array.make (2 * m) 0 in
    let adj_eid = Array.make (2 * m) 0 in
    (* Ascending edge-id fill: each node's neighbour slice is ordered by
       edge id, as the old nested-array layout was. *)
    for e = 0 to m - 1 do
      let u = eu.(e) and v = ev.(e) in
      adj_nbr.(fill.(u)) <- v;
      adj_eid.(fill.(u)) <- e;
      fill.(u) <- fill.(u) + 1;
      adj_nbr.(fill.(v)) <- u;
      adj_eid.(fill.(v)) <- e;
      fill.(v) <- fill.(v) + 1
    done;
    { n = b.bn; m; eu; ev; elen; adj_off; adj_nbr; adj_eid }
end

let of_edges ~n edges =
  let b = Builder.create n in
  List.iter (fun (u, v, len) -> Builder.add_edge b u v len) edges;
  Builder.build b

let geometric points pairs =
  let n = Array.length points in
  let b = Builder.create n in
  List.iter
    (fun (u, v) -> Builder.add_edge b u v (Adhoc_geom.Point.dist points.(u) points.(v)))
    pairs;
  Builder.build b

let n g = g.n

let num_edges g = g.m

let edge_u g id = g.eu.(id)
let edge_v g id = g.ev.(id)
let edge_us g = g.eu
let edge_vs g = g.ev

let edge g id = { u = g.eu.(id); v = g.ev.(id); len = g.elen.(id) }

let endpoints g id = (g.eu.(id), g.ev.(id))

let other_endpoint g id u =
  if g.eu.(id) = u then g.ev.(id)
  else if g.ev.(id) = u then g.eu.(id)
  else invalid_arg "Graph.other_endpoint: node not on edge"

let length g id = g.elen.(id)

let find_edge g u v =
  let rec loop k =
    if k >= g.adj_off.(u + 1) then None
    else if g.adj_nbr.(k) = v then Some g.adj_eid.(k)
    else loop (k + 1)
  in
  loop g.adj_off.(u)

let mem_edge g u v = Option.is_some (find_edge g u v)

let degree g u = g.adj_off.(u + 1) - g.adj_off.(u)

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    best := max !best (degree g u)
  done;
  !best

let iter_neighbors g u f =
  for k = g.adj_off.(u) to g.adj_off.(u + 1) - 1 do
    f g.adj_nbr.(k) g.adj_eid.(k)
  done

let incidence_offsets g = g.adj_off
let incidence_nodes g = g.adj_nbr
let incidence_edges g = g.adj_eid

let fold_edges g ~init ~f =
  let acc = ref init in
  for id = 0 to g.m - 1 do
    acc := f !acc id { u = g.eu.(id); v = g.ev.(id); len = g.elen.(id) }
  done;
  !acc

let total_length g =
  let acc = ref 0. in
  for id = 0 to g.m - 1 do
    acc := !acc +. g.elen.(id)
  done;
  !acc

let total_energy ?(kappa = 2.) g =
  let acc = ref 0. in
  for id = 0 to g.m - 1 do
    acc := !acc +. Float.pow g.elen.(id) kappa
  done;
  !acc

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: node count mismatch";
  let builder = Builder.create a.n in
  for id = 0 to a.m - 1 do
    Builder.add_edge builder a.eu.(id) a.ev.(id) a.elen.(id)
  done;
  for id = 0 to b.m - 1 do
    Builder.add_edge builder b.eu.(id) b.ev.(id) b.elen.(id)
  done;
  Builder.build builder
