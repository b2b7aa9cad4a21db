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
  (* Queue per (node, next-edge): packets waiting at [node] to cross that
     edge.  Keyed by (node, edge id). *)
  let queues : (int * int, packet list ref) Hashtbl.t = Hashtbl.create 256 in
  let queue_of node e =
    match Hashtbl.find_opt queues (node, e) with
    | Some q -> q
    | None ->
        let q = ref [] in
        Hashtbl.add queues (node, e) q;
        q
  in
  let enqueue t pkt =
    match pkt.remaining with
    | [] -> assert false
    | e :: _ ->
        pkt.arrived_at_queue <- t;
        let q = queue_of pkt.at e in
        q := pkt :: !q
  in
  let injected = ref 0
  and delivered = ref 0
  and total_cost = ref 0.
  and max_queue = ref 0
  and latencies = ref []
  and seq = ref 0 in
  (* Priority: smaller key wins. *)
  let key p =
    match discipline with
    | Fifo -> (p.arrived_at_queue, p.seq)
    | Lifo -> (-p.arrived_at_queue, -p.seq)
    | Furthest_to_go -> (-List.length p.remaining, p.seq)
    | Nearest_to_go -> (List.length p.remaining, p.seq)
    | Longest_in_system -> (p.injected_at, p.seq)
  in
  for t = 0 to steps - 1 do
    (* Collect this step's winners: per (node, edge) queue, the
       discipline's minimum.  At most one packet per direction.
       Queues are visited in ascending (node, edge) order so the float cost
       accumulation below never depends on Hashtbl traversal order. *)
    let winners = ref [] in
    Adhoc_util.Det.iter_sorted
      (fun (_node, e) q ->
        if !q <> [] then begin
          max_queue := max !max_queue (List.length !q);
          let best =
            List.fold_left
              (fun acc p -> match acc with Some b when key b <= key p -> acc | _ -> Some p)
              None !q
          in
          match best with Some p -> winners := (e, p) :: !winners | None -> ()
        end)
      queues;
    let winners = List.rev !winners in
    (* Apply moves simultaneously. *)
    List.iter
      (fun (e, p) ->
        let q = queue_of p.at e in
        q := List.filter (fun p' -> p' != p) !q;
        total_cost := !total_cost +. edge_cost.(e);
        p.at <- Graph.other_endpoint graph e p.at;
        p.remaining <- List.tl p.remaining;
        if p.remaining = [] then begin
          incr delivered;
          latencies := float_of_int (t - p.injected_at) :: !latencies
        end
        else enqueue t p)
      winners;
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
                { injected_at = t; at = src; remaining = path; arrived_at_queue = t; seq = !seq }
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
    avg_latency =
      (match !latencies with
      | [] -> 0.
      | l -> Adhoc_util.Stats.mean (Array.of_list l));
  }
