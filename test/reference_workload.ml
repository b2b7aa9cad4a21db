(* The list-based certifier that Workload.generate_with replaced, kept as
   the oracle for the flat one: the same draws, a full Dijkstra run per
   source (where the flat one stops at each pair's destination), the same
   greedy earliest-slot search over the whole window, reservations as per-step
   lists, buffer stays as (time, ±1) tuples in a (node, dest)-keyed table
   and activations through List.sort_uniq.  It records the schedule of
   each accepted packet too, so Certificate.check can run on it and the
   flat certifier's schedule can be compared with it. *)

module Graph = Adhoc_graph.Graph
module Dijkstra = Adhoc_graph.Dijkstra
module Conflict = Adhoc_interference.Conflict
module Prng = Adhoc_util.Prng
module Workload = Adhoc_routing.Workload

let generate_with ~pick_pair ?conflict (config : Workload.config) ~rng ~graph ~cost =
  if config.horizon <= 0 then invalid_arg "Workload: horizon must be positive";
  if config.interference_free && conflict = None then
    invalid_arg "Workload: interference_free requires a conflict structure";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload: need at least two nodes";
  let horizon = config.horizon in
  let reserved_at = Array.make horizon [] in
  let injections = Array.make horizon [] in
  let sssp = Hashtbl.create 32 in
  let dijkstra src =
    match Hashtbl.find_opt sssp src with
    | Some r -> r
    | None ->
        let r = Dijkstra.run graph ~cost ~src in
        Hashtbl.add sssp src r;
        r
  in
  let compatible =
    match conflict with
    | Some c when config.interference_free ->
        fun e step ->
          List.for_all (fun e' -> e' <> e && not (Conflict.interfere c e e')) reserved_at.(step)
    | _ -> fun e step -> List.for_all (fun e' -> e' <> e) reserved_at.(step)
  in
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
  (* Accepted packets, most recent first: (src, dst, t0, [(edge, slot)]). *)
  let accepted = ref [] in
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
            let t0 = Prng.int rng (horizon - window) in
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
                accepted := (src, dst, t0, slots) :: !accepted;
                incr deliveries;
                total_hops := !total_hops + len;
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
  let max_buffer = ref 1 in
  Hashtbl.iter
    (fun _ l ->
      let sorted = List.sort compare !l in
      let h = ref 0 in
      List.iter
        (fun (_, d) ->
          h := !h + d;
          if !h > !max_buffer then max_buffer := !h)
        sorted)
    events;
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
  let packets = Array.of_list (List.rev !accepted) in
  let hops = Array.concat (Array.to_list (Array.map (fun (_, _, _, s) -> Array.of_list s) packets)) in
  let first_hop = Array.make (Array.length packets + 1) 0 in
  Array.iteri
    (fun p (_, _, _, s) -> first_hop.(p + 1) <- first_hop.(p) + List.length s)
    packets;
  let d = !deliveries in
  {
    Workload.horizon;
    injections;
    activations = Array.map (List.sort_uniq Int.compare) reserved_at;
    opt =
      {
        Workload.deliveries = d;
        total_cost = !total_cost;
        avg_cost = (if d = 0 then 0. else !total_cost /. float_of_int d);
        avg_hops = (if d = 0 then 0. else float_of_int !total_hops /. float_of_int d);
        max_buffer = !max_buffer;
        delta = !delta;
      };
    schedule =
      {
        Workload.slack = config.slack;
        interference_free = config.interference_free;
        src = Array.map (fun (s, _, _, _) -> s) packets;
        dst = Array.map (fun (_, d, _, _) -> d) packets;
        t0 = Array.map (fun (_, _, t, _) -> t) packets;
        first_hop;
        hop_edge = Array.map fst hops;
        hop_slot = Array.map snd hops;
      };
  }

(* The public generators' draws, without Workload.flows's hop limit. *)

let flows ?conflict config ~rng ~graph ~cost ~num_flows =
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
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

let single_destination ?conflict config ~rng ~graph ~cost ~sink =
  let n = Graph.n graph in
  generate_with ~pick_pair:(fun rng -> (Prng.int rng n, sink)) ?conflict config ~rng ~graph ~cost
