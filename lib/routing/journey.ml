module Event = Adhoc_obs.Event
module Mirror = Adhoc_obs.Mirror
module Stats = Adhoc_util.Stats

type edge_use = {
  edge : int;
  u : int;
  v : int;
  sends : int;
  collisions : int;
  energy : float;
  wait_sum : float;
}

let mean_wait e = if e.sends = 0 then 0. else e.wait_sum /. float_of_int e.sends

type t = {
  steps : int;
  totals : Mirror.counters;
  latency_mean : float;
  latency_median : float;
  latency_p95 : float;
  hops_mean : float;
  energy_per_delivered : float;
  packets : Mirror.packet list;
  edges : edge_use array;
  timeline : (int * int * int) array;
}

let analyze (events : Event.t array) =
  let m = Mirror.create () in
  let edge_tbl : (int, edge_use) Hashtbl.t = Hashtbl.create 64 in
  let all_packets = ref [] in
  let committed = Option.iter (fun p -> all_packets := p :: !all_packets) in
  let snapshots = ref [] in
  let cur_step = ref (-1) in
  let snapshot () =
    if !cur_step >= 0 then begin
      let c = Mirror.counters m in
      snapshots := (!cur_step, c.delivered, c.buffered) :: !snapshots
    end
  in
  let touch_edge edge ~u ~v f =
    let prev =
      match Hashtbl.find_opt edge_tbl edge with
      | Some e -> e
      | None -> { edge; u; v; sends = 0; collisions = 0; energy = 0.; wait_sum = 0. }
    in
    Hashtbl.replace edge_tbl edge (f prev)
  in
  Array.iter
    (fun ev ->
      (* Settled before the snapshot, which then counts the injection. *)
      committed (Mirror.settle m ev);
      let step = Event.step ev in
      if step <> !cur_step then begin
        snapshot ();
        cur_step := step
      end;
      let moved = Mirror.feed m ev in
      match ev with
      | Event.Send { edge; src; dst; cost; _ } ->
          (* No packet moved from an empty cell: the mirror counts that
             send as an anomaly, and it adds no wait. *)
          let wait = match moved with Some p -> float_of_int p.waited | None -> 0. in
          touch_edge edge ~u:src ~v:dst (fun e ->
              {
                e with
                sends = e.sends + 1;
                energy = e.energy +. cost;
                wait_sum = e.wait_sum +. wait;
              })
      | Event.Collide { edge; src; dst; cost; _ } ->
          touch_edge edge ~u:src ~v:dst (fun e ->
              { e with collisions = e.collisions + 1; energy = e.energy +. cost })
      | Event.Inject _ | Event.Deliver _ | Event.Epoch_change _ | Event.Height_advert _ -> ())
    events;
  committed (Mirror.flush m);
  snapshot ();
  let edges =
    (* Ascending edge-id order, independent of Hashtbl internals. *)
    Array.of_list (List.map snd (Adhoc_util.Det.sorted_bindings edge_tbl))
  in
  let packets = List.rev !all_packets in
  (* Per-packet statistics over the delivered packets in injection
     order; the tests' reference mirror aggregates the same way, so the
     two agree bit-for-bit on the same run. *)
  let delivered = List.filter Mirror.delivered packets in
  let column f = Array.of_list (List.map f delivered) in
  let latencies = column (fun p -> float_of_int (Mirror.latency p)) in
  (* Stats.mean reads 0. on no packets; so do the percentiles here. *)
  let percentile q = if Array.length latencies = 0 then 0. else Stats.percentile latencies q in
  {
    steps = !cur_step + 1;
    totals = Mirror.counters m;
    latency_mean = Stats.mean latencies;
    latency_median = percentile 50.;
    latency_p95 = percentile 95.;
    hops_mean = Stats.mean (column (fun p -> float_of_int p.Mirror.hops));
    energy_per_delivered = Stats.mean (column (fun p -> p.Mirror.energy));
    packets;
    edges;
    timeline = Array.of_list (List.rev !snapshots);
  }
