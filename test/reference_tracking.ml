(* An online FIFO identity mirror of a run's buffers: the independent
   reference that Journey.analyze is held to.  It follows the run as the
   engine emits events (one observer call per event, through
   Event.add_observer), keeps its own identity queue per (node,
   destination) cell and charges each send the cost of its edge as the
   graph and cost function give it, not the cost the event carries.  Its
   statistics are aggregated over the delivered packets in injection
   order. *)

module Graph = Adhoc_graph.Graph
module Event = Adhoc_obs.Event
module Stats = Adhoc_util.Stats

type packet = {
  injected_at : int;
  mutable delivered_at : int;  (* -1 while in flight *)
  mutable hops : int;
  mutable energy : float;
}

type stats = {
  latency_mean : float;
  latency_median : float;
  latency_p95 : float;
  hops_mean : float;
  energy_per_delivered : float;  (* mean energy charged to delivered packets *)
  packets : packet list;  (* every admitted packet, delivered or not *)
}

type t = {
  queues : (int * int, packet Queue.t) Hashtbl.t;
  edge_cost : float array;
  mutable admitted : packet list;  (* newest first *)
}

let queue_of t v d =
  match Hashtbl.find_opt t.queues (v, d) with
  | Some queue -> queue
  | None ->
      let queue = Queue.create () in
      Hashtbl.add t.queues (v, d) queue;
      queue

let observe t _ = function
  | Event.Inject { step; src; dst; admitted } ->
      (* Self-injections are absorbed on admission and never become
         packets. *)
      if admitted && src <> dst then begin
        let pkt = { injected_at = step; delivered_at = -1; hops = 0; energy = 0. } in
        t.admitted <- pkt :: t.admitted;
        Queue.push pkt (queue_of t src dst)
      end
  | Event.Send { step; edge; src; dst; dest; outcome; _ } -> (
      let pkt = Queue.pop (queue_of t src dest) in
      pkt.hops <- pkt.hops + 1;
      pkt.energy <- pkt.energy +. t.edge_cost.(edge);
      match outcome with
      | Event.Delivered -> pkt.delivered_at <- step
      | Event.Moved -> Queue.push pkt (queue_of t dst dest))
  | Event.Collide _ | Event.Deliver _ | Event.Epoch_change _ | Event.Height_advert _ -> ()

(* Attach before the run: the mirror starts from empty buffers. *)
let attach ~graph ~cost log =
  let t =
    {
      queues = Hashtbl.create 64;
      edge_cost = Array.init (Graph.num_edges graph) (fun e -> cost (Graph.length graph e));
      admitted = [];
    }
  in
  Event.add_observer log (observe t);
  t

(* Latency fields are 0. when nothing was delivered. *)
let stats t =
  let packets = List.rev t.admitted in
  let delivered = List.filter (fun p -> p.delivered_at >= 0) packets in
  let column f = Array.of_list (List.map f delivered) in
  let latencies = column (fun p -> float_of_int (p.delivered_at - p.injected_at)) in
  if Array.length latencies = 0 then
    {
      latency_mean = 0.;
      latency_median = 0.;
      latency_p95 = 0.;
      hops_mean = 0.;
      energy_per_delivered = 0.;
      packets;
    }
  else
    {
      latency_mean = Stats.mean latencies;
      latency_median = Stats.percentile latencies 50.;
      latency_p95 = Stats.percentile latencies 95.;
      hops_mean = Stats.mean (column (fun p -> float_of_int p.hops));
      energy_per_delivered = Stats.mean (column (fun p -> p.energy));
      packets;
    }
