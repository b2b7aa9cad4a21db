module Graph = Adhoc_graph.Graph
module Model = Adhoc_interference.Model

type summary = { packets : int; hops : int }

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let compare_pair (a, b) (c, d) =
  let x = Int.compare a c in
  if x <> 0 then x else Int.compare b d

(* Largest number of stays overlapping in one (node, dest) buffer.  A
   stay (node, dest, from, until) occupies the buffer from step [from] up
   to, not including, step [until]: events sort by key, then step, and a
   departure (-1) before an arrival (+1). *)
let max_occupancy stays =
  let events = List.concat_map (fun (v, d, a, b) -> [ (v, d, a, 1); (v, d, b, -1) ]) stays in
  let compare_event (v, d, t, x) (v', d', t', x') =
    let c = compare_pair (v, d) (v', d') in
    if c <> 0 then c else compare_pair (t, x) (t', x')
  in
  let sorted = List.sort compare_event events in
  let best = ref 1 and h = ref 0 and last = ref (-1, -1) in
  List.iter
    (fun (v, d, _, x) ->
      if compare_pair (v, d) !last <> 0 then begin
        h := 0;
        last := (v, d)
      end;
      h := !h + x;
      if !h > !best then best := !h)
    sorted;
  !best

(* Most edges sharing one node in a slot: the longest run of one node in
   the sorted list of the slot's endpoints. *)
let max_shared graph edges =
  let nodes =
    List.sort Int.compare (List.concat_map (fun e -> [ Graph.edge_u graph e; Graph.edge_v graph e ]) edges)
  in
  let rec runs best cur prev = function
    | [] -> max best cur
    | v :: rest -> if v = prev then runs best (cur + 1) v rest else runs (max best cur) 1 v rest
  in
  runs 0 0 (-1) nodes

let check_exn ~interference:(model, points) ~graph ~cost (w : Workload.t) =
  let s = w.Workload.schedule in
  let horizon = w.Workload.horizon in
  let n = Graph.n graph and m = Graph.num_edges graph in
  let packets = Array.length s.Workload.src in
  let hops = Array.length s.Workload.hop_edge in
  if
    Array.length s.Workload.dst <> packets
    || Array.length s.Workload.t0 <> packets
    || Array.length s.Workload.first_hop <> packets + 1
    || Array.length s.Workload.hop_slot <> hops
  then fail "schedule: array lengths disagree";
  if s.Workload.first_hop.(0) <> 0 || s.Workload.first_hop.(packets) <> hops then
    fail "schedule: hop offsets do not span the hop arrays";
  if
    Array.length w.Workload.injections <> horizon
    || Array.length w.Workload.activations <> horizon
  then fail "per-step arrays are not horizon long";
  (* Each packet: a walk from src to dst in strictly increasing slots
     inside its window.  Collects what the per-slot and opt checks need. *)
  let at_slot = Array.make horizon [] in
  let injected = Array.make horizon [] in
  let stays = ref [] and total_cost = ref 0. in
  for p = 0 to packets - 1 do
    let src = s.Workload.src.(p) and dst = s.Workload.dst.(p) and t0 = s.Workload.t0.(p) in
    let first = s.Workload.first_hop.(p) and last = s.Workload.first_hop.(p + 1) in
    if src < 0 || src >= n || dst < 0 || dst >= n then fail "packet %d: node out of range" p;
    if t0 < 0 || t0 >= horizon then fail "packet %d: injection step %d outside the horizon" p t0;
    if last < first || last > hops then
      fail "packet %d: hop offsets %d..%d do not lie in the %d hops" p first last hops;
    let len = last - first in
    let node = ref src and arrive = ref t0 in
    for h = first to last - 1 do
      let e = s.Workload.hop_edge.(h) and slot = s.Workload.hop_slot.(h) in
      if e < 0 || e >= m then fail "packet %d: hop %d crosses no edge (%d)" p (h - first) e;
      let u = Graph.edge_u graph e and v = Graph.edge_v graph e in
      let next =
        if u = !node then v
        else if v = !node then u
        else fail "packet %d: hop %d (edge %d) does not leave node %d" p (h - first) e !node
      in
      if slot <= !arrive then
        fail "packet %d: hop %d at slot %d, not after slot %d" p (h - first) slot !arrive;
      if slot > t0 + len + s.Workload.slack || slot >= horizon then
        fail "packet %d: hop %d at slot %d, outside [%d, %d] or the horizon %d" p (h - first) slot
          (t0 + 1)
          (t0 + len + s.Workload.slack)
          horizon;
      if !node <> dst then stays := (!node, dst, !arrive, slot) :: !stays;
      at_slot.(slot) <- e :: at_slot.(slot);
      total_cost := !total_cost +. cost (Graph.length graph e);
      node := next;
      arrive := slot
    done;
    if !node <> dst then fail "packet %d: walk ends at node %d, not at %d" p !node dst;
    injected.(t0) <- (src, dst) :: injected.(t0)
  done;
  (* Each slot: no edge twice and no interfering pair. *)
  let at_slot = Array.map (List.sort Int.compare) at_slot in
  Array.iteri
    (fun t edges ->
      let rec distinct = function
        | a :: (b :: _ as rest) ->
            if a = b then fail "slot %d holds edge %d twice" t a else distinct rest
        | _ -> ()
      in
      distinct edges;
      if s.Workload.interference_free then begin
        let pair e = (Graph.edge_u graph e, Graph.edge_v graph e) in
        let rec pairs = function
          | [] -> ()
          | e :: rest ->
              List.iter
                (fun e' ->
                  if Model.interferes model ~points (pair e) (pair e') then
                    fail "slot %d: edges %d and %d interfere" t e e')
                rest;
              pairs rest
        in
        pairs edges
      end)
    at_slot;
  (* Each step: the activations and injections the engines read are the
     schedule's. *)
  let delta = ref 1 in
  for t = 0 to horizon - 1 do
    if not (List.equal Int.equal at_slot.(t) w.Workload.activations.(t)) then
      fail "step %d: activations are not the schedule's edges" t;
    if
      not
        (List.equal
           (fun a b -> compare_pair a b = 0)
           (List.sort compare_pair injected.(t))
           (List.sort compare_pair w.Workload.injections.(t)))
    then fail "step %d: injections are not the scheduled packets" t;
    delta := max !delta (max_shared graph at_slot.(t))
  done;
  let o = w.Workload.opt in
  let avg x = if packets = 0 then 0. else x /. float_of_int packets in
  if o.Workload.deliveries <> packets then
    fail "opt.deliveries is %d, the schedule holds %d packets" o.Workload.deliveries packets;
  if not (same_float o.Workload.total_cost !total_cost) then
    fail "opt.total_cost is %h, the schedule's hops cost %h" o.Workload.total_cost !total_cost;
  if not (same_float o.Workload.avg_cost (avg !total_cost)) then
    fail "opt.avg_cost is %h, not %h" o.Workload.avg_cost (avg !total_cost);
  if not (same_float o.Workload.avg_hops (avg (float_of_int hops))) then
    fail "opt.avg_hops is %h, not %h" o.Workload.avg_hops (avg (float_of_int hops));
  let buffer = max_occupancy !stays in
  if o.Workload.max_buffer <> buffer then
    fail "opt.max_buffer is %d, the schedule's is %d" o.Workload.max_buffer buffer;
  if o.Workload.delta <> !delta then
    fail "opt.delta is %d, the schedule's is %d" o.Workload.delta !delta;
  { packets; hops }

let check ~interference ~graph ~cost w =
  match check_exn ~interference ~graph ~cost w with
  | summary -> Ok summary
  | exception Violation reason -> Error reason
