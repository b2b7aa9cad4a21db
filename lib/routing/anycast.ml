module Graph = Adhoc_graph.Graph

type group = int array

type stats = {
  steps : int;
  injected : int;
  dropped : int;
  delivered : int;
  sends : int;
  total_cost : float;
  remaining : int;
  per_member : (int * int) list;
}

let run ?(cooldown = 0) ?pad ~graph ~cost ~params ~groups ~injections ~horizon () =
  let n = Graph.n graph in
  Array.iter
    (fun g ->
      if Array.length g = 0 then invalid_arg "Anycast.run: empty group";
      Array.iter
        (fun v -> if v < 0 || v >= n then invalid_arg "Anycast.run: group member out of range")
        g)
    groups;
  let absorbed = Array.make n 0 in
  let steps = horizon + cooldown in
  let s =
    Engine.run ~who:"Anycast.run" ~params ~heights:Live
      ~absorb:(Group { members = groups; absorbed })
      ~injections:(fun t -> if t < horizon then injections t else [])
      [ { Engine.graph; cost; activation = Rounds pad; steps; epoch = None } ]
  in
  {
    steps;
    injected = s.Engine.injected;
    dropped = s.Engine.dropped;
    delivered = s.Engine.delivered;
    sends = s.Engine.sends;
    total_cost = s.Engine.total_cost;
    remaining = s.Engine.remaining;
    per_member =
      List.filter (fun (_, k) -> k > 0) (List.mapi (fun v k -> (v, k)) (Array.to_list absorbed));
  }
