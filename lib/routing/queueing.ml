module Graph = Adhoc_graph.Graph
module Dijkstra = Adhoc_graph.Dijkstra
module Prng = Adhoc_util.Prng

type discipline =
  | Fifo
  | Lifo
  | Furthest_to_go
  | Nearest_to_go
  | Longest_in_system

let discipline_name = function
  | Fifo -> "FIFO"
  | Lifo -> "LIFO"
  | Furthest_to_go -> "FTG"
  | Nearest_to_go -> "NTG"
  | Longest_in_system -> "LIS"

type stats = {
  steps : int;
  injected : int;
  delivered : int;
  total_cost : float;
  max_queue : int;
  avg_latency : float;
}

type packet = {
  injected_at : int;
  mutable at : int;  (** current node *)
  mutable remaining : int list;  (** edge ids still to traverse *)
  mutable hops : int;  (** [List.length remaining] *)
  mutable arrived_at_queue : int;  (** step it joined the current queue *)
  seq : int;  (** tie-breaker: injection sequence number *)
}

let path_flows ~horizon ~rng ~graph ~cost ~num_flows ~rate =
  if rate <= 0. || rate > 1. then invalid_arg "Queueing.path_flows: rate must be in (0,1]";
  if num_flows < 1 then invalid_arg "Queueing.path_flows: need at least one flow";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Queueing.path_flows: need at least two nodes";
  (* Fixed shortest path per flow. *)
  let flows =
    Array.init num_flows (fun _ ->
        let rec draw attempts =
          let src = Prng.int rng n in
          let dst = Prng.int rng n in
          if src = dst && attempts > 0 then draw (attempts - 1)
          else begin
            let sp = Dijkstra.run graph ~cost ~src in
            match Dijkstra.path_edges sp dst with
            | Some path when path <> [] -> (src, dst, path)
            | _ -> if attempts > 0 then draw (attempts - 1) else (src, dst, [])
          end
        in
        draw 50)
  in
  Array.init horizon (fun _ ->
      Array.fold_left
        (fun step ((_, _, path) as flow) ->
          if path <> [] && Prng.uniform rng < rate then flow :: step else step)
        [] flows)

let run ?(cooldown = 0) ~graph ~cost discipline paths =
  let horizon = Array.length paths in
  let steps = horizon + cooldown in
  let edge_cost = Array.init (Graph.num_edges graph) (fun e -> cost (Graph.length graph e)) in
  (* One queue per slot of the CSR incidence: the packets waiting at a
     node to cross one of its edges, and their count.  The slots run by
     node and, within a node, by ascending edge id, so a scan of the slots
     visits the queues in ascending (node, edge) order, and the float cost
     sum below depends on nothing else. *)
  let off = Graph.incidence_offsets graph and slot_edge = Graph.incidence_edges graph in
  let slots = Array.length slot_edge in
  let queue = Array.make slots [] and len = Array.make slots 0 in
  let slot_of node e =
    let k = ref off.(node) in
    while !k < off.(node + 1) && slot_edge.(!k) <> e do
      incr k
    done;
    if !k = off.(node + 1) then invalid_arg "Queueing.run: path edge not at the packet's node";
    !k
  in
  let enqueue t pkt =
    match pkt.remaining with
    | [] -> assert false
    | e :: _ ->
        pkt.arrived_at_queue <- t;
        let k = slot_of pkt.at e in
        queue.(k) <- pkt :: queue.(k);
        len.(k) <- len.(k) + 1
  in
  let injected = ref 0
  and delivered = ref 0
  and total_cost = ref 0.
  and max_queue = ref 0
  and latency_sum = ref 0
  and latencies = ref 0
  and seq = ref 0 in
  (* Priority: the smaller (primary, seq) pair wins.  Every packet has
     its own seq, so no two pairs tie. *)
  let primary p =
    match discipline with
    | Fifo -> p.arrived_at_queue
    | Lifo -> -p.arrived_at_queue
    | Furthest_to_go -> -p.hops
    | Nearest_to_go -> p.hops
    | Longest_in_system -> p.injected_at
  in
  let secondary p = match discipline with Lifo -> -p.seq | _ -> p.seq in
  let before p b =
    let kp = primary p and kb = primary b in
    kp < kb || (kp = kb && secondary p < secondary b)
  in
  for t = 0 to steps - 1 do
    (* Collect this step's winners: per (node, edge) queue, the
       discipline's minimum.  At most one packet per direction. *)
    let winners = ref [] in
    for k = 0 to slots - 1 do
      if len.(k) > 0 then begin
        if len.(k) > !max_queue then max_queue := len.(k);
        match queue.(k) with
        | [] -> ()
        | first :: rest ->
            let best = List.fold_left (fun b p -> if before p b then p else b) first rest in
            winners := (k, best) :: !winners
      end
    done;
    (* Apply moves simultaneously. *)
    List.iter
      (fun (k, p) ->
        let e = slot_edge.(k) in
        queue.(k) <- List.filter (fun p' -> p' != p) queue.(k);
        len.(k) <- len.(k) - 1;
        total_cost := !total_cost +. edge_cost.(e);
        p.at <- Graph.other_endpoint graph e p.at;
        p.remaining <- List.tl p.remaining;
        p.hops <- p.hops - 1;
        if p.hops = 0 then begin
          incr delivered;
          latency_sum := !latency_sum + (t - p.injected_at);
          incr latencies
        end
        else enqueue t p)
      (List.rev !winners);
    (* Injections. *)
    if t < horizon then
      List.iter
        (fun (src, _dst, path) ->
          incr injected;
          incr seq;
          match path with
          | [] -> incr delivered
          | _ ->
              let p =
                {
                  injected_at = t;
                  at = src;
                  remaining = path;
                  hops = List.length path;
                  arrived_at_queue = t;
                  seq = !seq;
                }
              in
              enqueue t p)
        paths.(t)
  done;
  {
    steps;
    injected = !injected;
    delivered = !delivered;
    total_cost = !total_cost;
    max_queue = !max_queue;
    (* The latencies are integers, so their float sum is exact in any
       order: this is their mean. *)
    avg_latency =
      (if !latencies = 0 then 0. else float_of_int !latency_sum /. float_of_int !latencies);
  }
