(* All-pairs shortest paths by Floyd–Warshall, O(n³), and the all-pairs
   stretch from it: the small-graph oracles that Dijkstra and
   Stretch.over_base_edges are checked against. *)

module Graph = Adhoc_graph.Graph

module Floyd_warshall = struct
  (* The matrix of shortest-path costs; [infinity] marks disconnected
     pairs, [0.] the diagonal. *)
  let run g ~cost =
    let n = Graph.n g in
    let d = Array.make_matrix n n infinity in
    for i = 0 to n - 1 do
      d.(i).(i) <- 0.
    done;
    ignore
      (Graph.fold_edges g ~init:() ~f:(fun () _ e ->
           let w = cost e.Graph.len in
           if w < d.(e.Graph.u).(e.Graph.v) then begin
             d.(e.Graph.u).(e.Graph.v) <- w;
             d.(e.Graph.v).(e.Graph.u) <- w
           end));
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let through = d.(i).(k) +. d.(k).(j) in
          if through < d.(i).(j) then d.(i).(j) <- through
        done
      done
    done;
    d
end

(* [max_{u,v} dist_sub(u,v) / dist_base(u,v)] by double Floyd–Warshall. *)
let exact_small ~sub ~base ~cost =
  if Graph.n sub <> Graph.n base then invalid_arg "Stretch: node count mismatch";
  let n = Graph.n base in
  let ds = Floyd_warshall.run sub ~cost in
  let db = Floyd_warshall.run base ~cost in
  let worst = ref 1. in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if db.(u).(v) < infinity && db.(u).(v) > 0. then
        worst := Float.max !worst (ds.(u).(v) /. db.(u).(v))
    done
  done;
  !worst
