module Event = Adhoc_obs.Event
module Stats = Adhoc_util.Stats

type totals = {
  steps : int;
  injected : int;
  dropped : int;
  delivered : int;
  self_deliveries : int;
  sends : int;
  collisions : int;
  energy : float;
  epochs : int;
  height_adverts : int;
}

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
  totals : totals;
  latency_mean : float;
  latency_median : float;
  latency_p95 : float;
  hops_mean : float;
  energy_per_delivered : float;
  packets : Packet.t list;
  edges : edge_use array;
  timeline : (int * int * int) array;
  anomalies : int;
}

(* FIFO identity queues keyed by (node, destination): the engines move
   packets FIFO per buffer cell. *)
let queue_of queues v d =
  match Hashtbl.find_opt queues (v, d) with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add queues (v, d) q;
      q

let analyze (events : Event.t array) =
  let queues : (int * int, Packet.t Queue.t) Hashtbl.t = Hashtbl.create 64 in
  (* Step at which each in-flight packet arrived at its current node;
     Packet.t has no such field, so it rides in a side table. *)
  let arrived : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let edge_tbl : (int, edge_use) Hashtbl.t = Hashtbl.create 64 in
  let all_packets = ref [] in
  let next_id = ref 0 in
  let injected = ref 0
  and dropped = ref 0
  and delivered = ref 0
  and self_deliveries = ref 0
  and sends = ref 0
  and collisions = ref 0
  and energy = ref 0.
  and epochs = ref 0
  and height_adverts = ref 0
  and anomalies = ref 0 in
  let buffered = ref 0 in
  let snapshots = ref [] in
  let cur_step = ref (-1) in
  let snapshot () =
    if !cur_step >= 0 then snapshots := (!cur_step, !delivered, !buffered) :: !snapshots
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
      let step = Event.step ev in
      if step <> !cur_step then begin
        snapshot ();
        cur_step := step
      end;
      match ev with
      | Event.Inject { src; dst; admitted; _ } ->
          if admitted then begin
            incr injected;
            if src = dst then begin
              incr delivered;
              incr self_deliveries
            end
            else begin
              let pkt = Packet.make ~id:!next_id ~src ~dst ~now:step in
              incr next_id;
              all_packets := pkt :: !all_packets;
              Hashtbl.replace arrived pkt.Packet.id step;
              Queue.push pkt (queue_of queues src dst);
              incr buffered
            end
          end
          else incr dropped
      | Event.Send { edge; src; dst; dest; cost; outcome; _ } -> (
          incr sends;
          energy := !energy +. cost;
          let q = queue_of queues src dest in
          match Queue.take_opt q with
          | None ->
              (* Corrupt log: the engine never sends from an empty cell. *)
              incr anomalies;
              touch_edge edge ~u:src ~v:dst (fun e ->
                  { e with sends = e.sends + 1; energy = e.energy +. cost })
          | Some pkt ->
              pkt.Packet.hops <- pkt.Packet.hops + 1;
              pkt.Packet.energy <- pkt.Packet.energy +. cost;
              let wait =
                match Hashtbl.find_opt arrived pkt.Packet.id with
                | Some s -> float_of_int (step - s)
                | None -> 0.
              in
              touch_edge edge ~u:src ~v:dst (fun e ->
                  {
                    e with
                    sends = e.sends + 1;
                    energy = e.energy +. cost;
                    wait_sum = e.wait_sum +. wait;
                  });
              (match outcome with
              | Event.Delivered ->
                  pkt.Packet.delivered_at <- step;
                  incr delivered;
                  decr buffered;
                  Hashtbl.remove arrived pkt.Packet.id
              | Event.Moved ->
                  if dst = dest then incr anomalies;
                  Hashtbl.replace arrived pkt.Packet.id step;
                  Queue.push pkt (queue_of queues dst dest));
              if outcome = Event.Delivered && dst <> dest then incr anomalies)
      | Event.Collide { edge; src; dst; cost; _ } ->
          incr collisions;
          energy := !energy +. cost;
          touch_edge edge ~u:src ~v:dst (fun e ->
              { e with collisions = e.collisions + 1; energy = e.energy +. cost })
      | Event.Deliver _ -> ()
      | Event.Epoch_change _ -> incr epochs
      | Event.Height_advert _ -> incr height_adverts)
    events;
  snapshot ();
  let totals =
    {
      steps = !cur_step + 1;
      injected = !injected;
      dropped = !dropped;
      delivered = !delivered;
      self_deliveries = !self_deliveries;
      sends = !sends;
      collisions = !collisions;
      energy = !energy;
      epochs = !epochs;
      height_adverts = !height_adverts;
    }
  in
  let edges =
    (* Ascending edge-id order, independent of Hashtbl internals. *)
    Array.of_list (List.map snd (Adhoc_util.Det.sorted_bindings edge_tbl))
  in
  let timeline = Array.of_list (List.rev !snapshots) in
  let packets = List.rev !all_packets in
  (* Per-packet statistics over the delivered packets in injection
     order; the tests' reference mirror aggregates the same way, so the
     two agree bit-for-bit on the same run. *)
  let delivered_packets = List.filter Packet.delivered packets in
  let latencies =
    Array.of_list (List.map (fun p -> float_of_int (Packet.latency p)) delivered_packets)
  in
  if Array.length latencies = 0 then
    {
      totals;
      latency_mean = 0.;
      latency_median = 0.;
      latency_p95 = 0.;
      hops_mean = 0.;
      energy_per_delivered = 0.;
      packets;
      edges;
      timeline;
      anomalies = !anomalies;
    }
  else begin
    let hops =
      Array.of_list (List.map (fun p -> float_of_int p.Packet.hops) delivered_packets)
    in
    let energy = Array.of_list (List.map (fun p -> p.Packet.energy) delivered_packets) in
    {
      totals;
      latency_mean = Stats.mean latencies;
      latency_median = Stats.percentile latencies 50.;
      latency_p95 = Stats.percentile latencies 95.;
      hops_mean = Stats.mean hops;
      energy_per_delivered = Stats.mean energy;
      packets;
      edges;
      timeline;
      anomalies = !anomalies;
    }
  end
