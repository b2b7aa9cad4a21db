module Graph = Adhoc_graph.Graph
module Dijkstra = Adhoc_graph.Dijkstra
module Conflict = Adhoc_interference.Conflict
module Prng = Adhoc_util.Prng

type opt_stats = {
  deliveries : int;
  total_cost : float;
  avg_cost : float;
  avg_hops : float;
  max_buffer : int;
  delta : int;
}

type schedule = {
  slack : int;
  interference_free : bool;
  src : int array;
  dst : int array;
  t0 : int array;
  first_hop : int array;
  hop_edge : int array;
  hop_slot : int array;
}

type t = {
  horizon : int;
  injections : (int * int) list array;
  activations : int list array;
  opt : opt_stats;
  schedule : schedule;
}

type config = {
  horizon : int;
  attempts : int;
  slack : int;
  interference_free : bool;
}

let no_schedule =
  {
    slack = 0;
    interference_free = false;
    src = [||];
    dst = [||];
    t0 = [||];
    first_hop = [| 0 |];
    hop_edge = [||];
    hop_slot = [||];
  }

(* A growable int array: one column of the certificate while packets are
   accepted. *)
module Column = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let push c x =
    if c.len = Array.length c.data then begin
      let data = Array.make (2 * c.len) 0 in
      Array.blit c.data 0 data 0 c.len;
      c.data <- data
    end;
    c.data.(c.len) <- x;
    c.len <- c.len + 1

  let contents c = Array.sub c.data 0 c.len
end

(* Each step's activations, ascending: a counting sort of the hops by
   edge, then the edges consed onto their slots from the highest down.
   An edge is reserved at most once per slot, so the lists are distinct
   without a dedup. *)
let activations_of ~edges ~horizon s =
  let hops = Array.length s.hop_edge in
  let ends = Array.make (edges + 1) 0 in
  for h = 0 to hops - 1 do
    let e = s.hop_edge.(h) in
    ends.(e + 1) <- ends.(e + 1) + 1
  done;
  for e = 1 to edges do
    ends.(e) <- ends.(e) + ends.(e - 1)
  done;
  (* [ends.(e)] advances from edge e's first position to its last + 1. *)
  let slots = Array.make hops 0 in
  for h = 0 to hops - 1 do
    let e = s.hop_edge.(h) in
    slots.(ends.(e)) <- s.hop_slot.(h);
    ends.(e) <- ends.(e) + 1
  done;
  let active = Array.make horizon [] in
  for e = edges - 1 downto 0 do
    for k = (if e = 0 then 0 else ends.(e - 1)) to ends.(e) - 1 do
      active.(slots.(k)) <- e :: active.(slots.(k))
    done
  done;
  active

(* Max buffer occupancy over (node, dest) pairs.  Hop h ends its packet's
   stay at a (node, dest) buffer, which began when the packet arrived
   there.  One counting pass buckets the stays' arrivals and departures
   by step, departures first within a step (as a (step, ±1) sort orders
   them), and the sweep keeps each buffer's count. *)
let max_buffer_of graph ~horizon s =
  let n = Graph.n graph in
  let hops = Array.length s.hop_edge in
  let ids = Hashtbl.create 64 in
  let key = Array.make hops (-1) and from = Array.make hops 0 in
  for p = 0 to Array.length s.src - 1 do
    let dst = s.dst.(p) in
    let node = ref s.src.(p) and arrive = ref s.t0.(p) in
    for h = s.first_hop.(p) to s.first_hop.(p + 1) - 1 do
      if s.hop_slot.(h) > !arrive && !node <> dst then begin
        let k = (!node * n) + dst in
        (key.(h) <-
           match Hashtbl.find ids k with
           | id -> id
           | exception Not_found ->
               let id = Hashtbl.length ids in
               Hashtbl.add ids k id;
               id);
        from.(h) <- !arrive
      end;
      node := Graph.other_endpoint graph s.hop_edge.(h) !node;
      arrive := s.hop_slot.(h)
    done
  done;
  let next = Array.make (horizon + 1) 0 in
  let stays = ref 0 in
  for h = 0 to hops - 1 do
    if key.(h) >= 0 then begin
      incr stays;
      next.(from.(h) + 1) <- next.(from.(h) + 1) + 1;
      next.(s.hop_slot.(h) + 1) <- next.(s.hop_slot.(h) + 1) + 1
    end
  done;
  for t = 1 to horizon do
    next.(t) <- next.(t) + next.(t - 1)
  done;
  (* Departures are written as [-1 - key], arrivals as [key]. *)
  let events = Array.make (2 * !stays) 0 in
  for h = 0 to hops - 1 do
    if key.(h) >= 0 then begin
      let t = s.hop_slot.(h) in
      events.(next.(t)) <- -1 - key.(h);
      next.(t) <- next.(t) + 1
    end
  done;
  for h = 0 to hops - 1 do
    if key.(h) >= 0 then begin
      let t = from.(h) in
      events.(next.(t)) <- key.(h);
      next.(t) <- next.(t) + 1
    end
  done;
  let count = Array.make (Hashtbl.length ids) 0 and best = ref 1 in
  for i = 0 to Array.length events - 1 do
    let x = events.(i) in
    if x < 0 then count.(-1 - x) <- count.(-1 - x) - 1
    else begin
      count.(x) <- count.(x) + 1;
      best := Int.max !best count.(x)
    end
  done;
  !best

(* δ: max activated edges sharing a node in one step. *)
let delta_of graph ~n active =
  let incident = Array.make n 0 and delta = ref 1 in
  let rec add = function
    | [] -> ()
    | e :: rest ->
        let u = Graph.edge_u graph e and v = Graph.edge_v graph e in
        incident.(u) <- incident.(u) + 1;
        incident.(v) <- incident.(v) + 1;
        delta := Int.max !delta (Int.max incident.(u) incident.(v));
        add rest
  in
  let rec clear = function
    | [] -> ()
    | e :: rest ->
        incident.(Graph.edge_u graph e) <- 0;
        incident.(Graph.edge_v graph e) <- 0;
        clear rest
  in
  Array.iter
    (fun edges ->
      add edges;
      clear edges)
    active;
  !delta

let generate_with ~pick_pair ?conflict config ~rng ~graph ~cost =
  if config.horizon <= 0 then invalid_arg "Workload: horizon must be positive";
  if config.interference_free && conflict = None then
    invalid_arg "Workload: interference_free requires a conflict structure";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload: need at least two nodes";
  let horizon = config.horizon and slack = config.slack in
  let edges = Graph.num_edges graph in
  let injections = Array.make horizon [] in
  (* One shortest path per distinct pair, from a Dijkstra stopped once the
     destination is settled: a settled node's predecessor never changes,
     so it is the path a full run from the source gives. *)
  let routes = Hashtbl.create 32 in
  let route src dst =
    let key = (src * n) + dst in
    match Hashtbl.find_opt routes key with
    | Some path -> path
    | None ->
        let path = Dijkstra.path_edges (Dijkstra.run_to graph ~cost ~src ~dst) dst in
        Hashtbl.add routes key path;
        path
  in
  (* The certificate's columns.  They hold the reservations too: the hops
     reserved in slot s form a chain from [last.(s)] back through
     [earlier], ended by -1. *)
  let src_col = Column.create () and dst_col = Column.create () in
  let t0_col = Column.create () and first_hop = Column.create () in
  let hop_edge = Column.create () and hop_slot = Column.create () in
  let earlier = Column.create () and last = Array.make horizon (-1) in
  Column.push first_hop 0;
  (* Stamped slot test.  Before searching slots for edge e, [mark] writes a
     fresh token over e and, for interference-free workloads, e's conflict
     row; a slot is free for e when no hop reserved in it carries the
     token.  That costs O(|I(e)|) per hop and one read per reserved edge
     per slot tried. *)
  let rows =
    match conflict with
    | Some c when config.interference_free -> Some c
    | _ -> None
  in
  let stamp = Array.make edges 0 and token = ref 0 in
  let mark e =
    incr token;
    let k = !token in
    stamp.(e) <- k;
    match rows with None -> () | Some c -> Conflict.stamp_row c stamp e k
  in
  let rec clear k h =
    h < 0 || (stamp.(hop_edge.Column.data.(h)) <> k && clear k earlier.Column.data.(h))
  in
  let free s = clear !token last.(s) in
  let slots = Array.make n 0 in
  let total_cost = ref 0. in
  for _ = 1 to config.attempts do
    let pair = pick_pair rng in
    let src, dst = pair in
    if src <> dst then
      match route src dst with
      | None -> ()
      | Some path ->
          let window = List.length path + slack in
          if window < horizon then begin
            let t0 = Prng.int rng (horizon - window) in
            (* Greedy earliest-slot reservation.  Hop i must land by
               t0 + slack + i + 1, since each later hop needs its own later
               slot and the last one lands by t0 + window: a packet that
               misses that deadline would fail the whole-window search
               anyway, and one that meets every deadline gets the same
               slots. *)
            let rec reserve i cur = function
              | [] -> true
              | e :: rest ->
                  let deadline = Int.min (t0 + slack + i + 1) (horizon - 1) in
                  mark e;
                  let s = ref (cur + 1) in
                  while !s <= deadline && not (free !s) do
                    incr s
                  done;
                  !s <= deadline
                  &&
                  (slots.(i) <- !s;
                   reserve (i + 1) !s rest)
            in
            if reserve 0 t0 path then begin
              Column.push src_col src;
              Column.push dst_col dst;
              Column.push t0_col t0;
              List.iteri
                (fun i e ->
                  let s = slots.(i) in
                  Column.push earlier last.(s);
                  last.(s) <- hop_edge.Column.len;
                  Column.push hop_edge e;
                  Column.push hop_slot s;
                  total_cost := !total_cost +. cost (Graph.length graph e))
                path;
              Column.push first_hop hop_edge.Column.len;
              injections.(t0) <- pair :: injections.(t0)
            end
          end
  done;
  let schedule =
    {
      slack;
      interference_free = config.interference_free;
      src = Column.contents src_col;
      dst = Column.contents dst_col;
      t0 = Column.contents t0_col;
      first_hop = Column.contents first_hop;
      hop_edge = Column.contents hop_edge;
      hop_slot = Column.contents hop_slot;
    }
  in
  let activations = activations_of ~edges ~horizon schedule in
  let d = Array.length schedule.src and hops = Array.length schedule.hop_edge in
  {
    horizon;
    injections;
    activations;
    opt =
      {
        deliveries = d;
        total_cost = !total_cost;
        avg_cost = (if d = 0 then 0. else !total_cost /. float_of_int d);
        avg_hops = (if d = 0 then 0. else float_of_int hops /. float_of_int d);
        max_buffer = max_buffer_of graph ~horizon schedule;
        delta = delta_of graph ~n activations;
      };
    schedule;
  }

(* [within_hops graph k src dst] answers "is [dst] within [k] hops of
   [src]?" by a breadth-first search that stops at depth [k] or on
   reaching [dst].  The seen stamps and the queue are allocated once and
   reused by every query, so memory stays O(n) however many pairs are
   tried, and a query visits at most the k-hop ball around [src]. *)
let within_hops graph k =
  let n = Graph.n graph in
  let seen = Array.make n 0 in
  let queue = Array.make n 0 in
  let query = ref 0 in
  fun src dst ->
    if src = dst then k >= 0
    else begin
      incr query;
      let stamp = !query in
      seen.(src) <- stamp;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 and depth = ref 0 and found = ref false in
      while (not !found) && !depth < k && !head < !tail do
        (* Expand one level: the nodes at distance [depth]. *)
        let level_end = !tail in
        while (not !found) && !head < level_end do
          Graph.iter_neighbors graph queue.(!head) (fun v _ ->
              if seen.(v) <> stamp then begin
                seen.(v) <- stamp;
                if v = dst then found := true;
                queue.(!tail) <- v;
                incr tail
              end);
          incr head
        done;
        incr depth
      done;
      !found
    end

let flows ?conflict ?max_hops config ~rng ~graph ~cost ~num_flows =
  if num_flows < 1 then invalid_arg "Workload.flows: need at least one flow";
  let n = Graph.n graph in
  let hop_ok =
    match max_hops with
    | None -> fun _ _ -> true
    | Some k -> within_hops graph k
  in
  let pairs =
    Array.init num_flows (fun _ ->
        let draw () =
          let src = Prng.int rng n in
          let rec pick () =
            let dst = Prng.int rng n in
            if dst = src && n > 1 then pick () else dst
          in
          (src, pick ())
        in
        let rec retry k =
          let src, dst = draw () in
          if k = 0 || hop_ok src dst then (src, dst) else retry (k - 1)
        in
        retry 200)
  in
  let pick_pair rng = pairs.(Prng.int rng num_flows) in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

let single_destination ?conflict ?sources config ~rng ~graph ~cost ~sink =
  let n = Graph.n graph in
  if sink < 0 || sink >= n then invalid_arg "Workload.single_destination: sink out of range";
  let pick_pair =
    match sources with
    | None -> fun rng -> (Prng.int rng n, sink)
    | Some srcs ->
        if Array.length srcs = 0 then invalid_arg "Workload.single_destination: empty sources";
        fun rng -> (srcs.(Prng.int rng (Array.length srcs)), sink)
  in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost
