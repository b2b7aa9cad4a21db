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

type t = {
  horizon : int;
  injections : (int * int) list array;
  paths : (int * int * int list) list array;
  activations : int list array;
  opt : opt_stats;
}

type config = {
  horizon : int;
  attempts : int;
  slack : int;
  interference_free : bool;
}

let generate_with ~pick_pair ?pick_time ?conflict config ~rng ~graph ~cost =
  if config.horizon <= 0 then invalid_arg "Workload.generate: horizon must be positive";
  if config.interference_free && conflict = None then
    invalid_arg "Workload.generate: interference_free requires a conflict structure";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload.generate: need at least two nodes";
  let horizon = config.horizon in
  let reserved_at = Array.make horizon [] in
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  let sssp = Hashtbl.create 32 in
  let dijkstra src =
    match Hashtbl.find_opt sssp src with
    | Some r -> r
    | None ->
        let r = Dijkstra.run graph ~cost ~src in
        Hashtbl.add sssp src r;
        r
  in
  (* A slot is free for [e] when [e] is not already reserved in it and,
     for interference-free workloads, no edge reserved in it interferes
     with [e].  One pass over the step's (short) reservation list answers
     both. *)
  let compatible =
    match conflict with
    | Some c when config.interference_free ->
        fun e step ->
          List.for_all (fun e' -> e' <> e && not (Conflict.interfere c e e')) reserved_at.(step)
    | _ -> fun e step -> List.for_all (fun e' -> e' <> e) reserved_at.(step)
  in
  (* Buffer-occupancy events: (node, dest) -> (time, +1/-1) list. *)
  let events : (int * int, (int * int) list ref) Hashtbl.t = Hashtbl.create 1024 in
  let record_stay node dest ~from_ ~until =
    if until > from_ && node <> dest then begin
      let key = (node, dest) in
      let l =
        match Hashtbl.find_opt events key with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add events key l;
            l
      in
      l := (from_, 1) :: (until, -1) :: !l
    end
  in
  let deliveries = ref 0 in
  let total_cost = ref 0. in
  let total_hops = ref 0 in
  for _ = 1 to config.attempts do
    let src, dst = pick_pair rng in
    if src <> dst then begin
      let sp = dijkstra src in
      match Dijkstra.path_edges sp dst with
      | None -> ()
      | Some path_edges ->
          let len = List.length path_edges in
          let window = len + config.slack in
          if window < horizon then begin
            let t0 =
              match pick_time with
              | None -> Prng.int rng (horizon - window)
              | Some f -> min (f rng) (horizon - window - 1)
            in
            (* Greedy earliest-slot reservation within [t0+1, t0+window]. *)
            let rec reserve acc cur = function
              | [] -> Some (List.rev acc)
              | e :: rest ->
                  let rec find s =
                    if s > t0 + window || s >= horizon then None
                    else if compatible e s then Some s
                    else find (s + 1)
                  in
                  (match find (cur + 1) with
                  | None -> None
                  | Some s -> reserve ((e, s) :: acc) s rest)
            in
            match reserve [] t0 path_edges with
            | None -> ()
            | Some slots ->
                List.iter (fun (e, s) -> reserved_at.(s) <- e :: reserved_at.(s)) slots;
                injections.(t0) <- (src, dst) :: injections.(t0);
                paths.(t0) <- (src, dst, path_edges) :: paths.(t0);
                incr deliveries;
                total_hops := !total_hops + len;
                (* Walk the schedule to record buffer stays. *)
                let node = ref src and arrive = ref t0 in
                List.iter
                  (fun (e, s) ->
                    record_stay !node dst ~from_:!arrive ~until:s;
                    node := Graph.other_endpoint graph e !node;
                    arrive := s;
                    total_cost := !total_cost +. cost (Graph.length graph e))
                  slots
          end
    end
  done;
  (* Max buffer occupancy across (node, dest) pairs.  Sorted-key traversal:
     the max itself is commutative, but keeping every reduction order-free
     by construction is cheaper than proving it per call site. *)
  let max_buffer = ref 1 in
  Adhoc_util.Det.iter_sorted
    (fun _ l ->
      let sorted =
        List.sort
          (fun (a, b) (c, d) ->
            let x = Int.compare a c in
            if x <> 0 then x else Int.compare b d)
          !l
      in
      let h = ref 0 in
      List.iter
        (fun (_, d) ->
          h := !h + d;
          if !h > !max_buffer then max_buffer := !h)
        sorted)
    events;
  (* δ: max activated edges sharing a node in one step. *)
  let delta = ref 1 in
  let incident = Array.make n 0 in
  Array.iter
    (fun edges ->
      List.iter
        (fun e ->
          let u, v = Graph.endpoints graph e in
          incident.(u) <- incident.(u) + 1;
          incident.(v) <- incident.(v) + 1;
          delta := max !delta (max incident.(u) incident.(v)))
        edges;
      List.iter
        (fun e ->
          let u, v = Graph.endpoints graph e in
          incident.(u) <- 0;
          incident.(v) <- 0)
        edges)
    reserved_at;
  let d = !deliveries in
  {
    horizon;
    injections;
    paths;
    activations = Array.map (List.sort_uniq Int.compare) reserved_at;
    opt =
      {
        deliveries = d;
        total_cost = !total_cost;
        avg_cost = (if d = 0 then 0. else !total_cost /. float_of_int d);
        avg_hops = (if d = 0 then 0. else float_of_int !total_hops /. float_of_int d);
        max_buffer = !max_buffer;
        delta = !delta;
      };
  }

let generate ?conflict config ~rng ~graph ~cost =
  let n = Graph.n graph in
  let pick_pair rng =
    let src = Prng.int rng n in
    let dst = Prng.int rng n in
    (src, dst)
  in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

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

let bursty ?conflict config ~rng ~graph ~cost ~num_flows ~period ~burst_width =
  if period <= 0 || burst_width <= 0 || burst_width > period then
    invalid_arg "Workload.bursty: need 0 < burst_width <= period";
  let n = Graph.n graph in
  let pairs =
    Array.init num_flows (fun _ ->
        let src = Prng.int rng n in
        let rec pick () =
          let dst = Prng.int rng n in
          if dst = src && n > 1 then pick () else dst
        in
        (src, pick ()))
  in
  let pick_pair rng = pairs.(Prng.int rng num_flows) in
  (* Injection times land only inside the burst window of each period. *)
  let pick_time rng =
    let periods = max 1 (config.horizon / period) in
    let p = Prng.int rng periods in
    (p * period) + Prng.int rng burst_width
  in
  generate_with ~pick_pair ~pick_time ?conflict config ~rng ~graph ~cost

let path_flows config ~rng ~graph ~cost ~num_flows ~rate =
  if rate <= 0. || rate > 1. then invalid_arg "Workload.path_flows: rate must be in (0,1]";
  if num_flows < 1 then invalid_arg "Workload.path_flows: need at least one flow";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload.path_flows: need at least two nodes";
  let horizon = config.horizon in
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
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  let injected = ref 0 in
  for t = 0 to horizon - 1 do
    Array.iter
      (fun (src, dst, path) ->
        if path <> [] && Prng.uniform rng < rate then begin
          injections.(t) <- (src, dst) :: injections.(t);
          paths.(t) <- (src, dst, path) :: paths.(t);
          incr injected
        end)
      flows
  done;
  {
    horizon;
    injections;
    paths;
    activations = Array.make horizon [];
    (* Not a certified workload: the opt block only records the injection
       count; competitive ratios are meaningless here. *)
    opt =
      {
        deliveries = !injected;
        total_cost = 0.;
        avg_cost = 0.;
        avg_hops = 0.;
        max_buffer = 1;
        delta = 1;
      };
  }
