(* Online streaming analytics over the packet-journey event stream.

   Tumbling windows are keyed by simulation step — never wall-clock — so
   every snapshot is a pure function of (event sequence, window size):
   bit-identical across --jobs, and bit-identical between an online run
   (attached to the engine's Event.log) and an offline replay of the
   recorded log.  The packet bookkeeping is the Mirror that
   Routing.Journey also folds through (each window's counts are
   differences of its counters), the quantile gauges come from Sketch,
   the heavy hitters from Topk, and health from the Invariants fold;
   none of them retains per-event state beyond O(buckets + k) and the
   packets in flight. *)

type window = {
  w : int;
  step_lo : int;
  step_hi : int;
  injected : int;
  dropped : int;
  delivered : int;
  self_deliveries : int;
  sends : int;
  collisions : int;
  control : int;
  buffered : int;  (* gauge at window close *)
  violations : int;  (* cumulative at window close *)
  latency_p50 : float;
  latency_p95 : float;
  hops_p50 : float;
  hops_p95 : float;
  occupancy_p50 : float;
  occupancy_p95 : float;
  top_edges : (int * int * int) list;
}

type cumulative = {
  steps : int;
  events : int;
  windows : int;
  totals : Mirror.counters;
  c_violations : int;
  healthy : bool;
  latency_mean : float;
  c_latency_p50 : float;
  latency_p90 : float;
  c_latency_p95 : float;
  latency_p99 : float;
  hops_mean : float;
  c_hops_p50 : float;
  c_hops_p95 : float;
  occupancy_mean : float;
  c_occupancy_p50 : float;
  c_occupancy_p95 : float;
  occupancy_max : float;
  c_top_edges : (int * int * int) list;
  top_nodes : (int * int * int) list;
}

type t = {
  window_size : int;
  latency : Sketch.t;
  hops : Sketch.t;
  occupancy : Sketch.t;
  edges_top : Topk.t;
  nodes_top : Topk.t;
  health : Invariants.t;
  mirror : Mirror.t;
  mutable opened : Mirror.counters;  (* the mirror's counters as the current window opened *)
  mutable cur : int;  (* current window index; -1 before the first event *)
  mutable seen_step : int;  (* largest step fed; -1 before the first event *)
  mutable nevents : int;
  mutable windows_rev : window list;
  mutable final : cumulative option;
}

let top_k = 8

let pow2_buckets upto = Array.init upto (fun i -> Float.of_int (1 lsl i))

let latency_buckets = pow2_buckets 15  (* 1 .. 16384 steps *)

let hops_buckets = Array.init 32 (fun i -> float_of_int (i + 1))

let occupancy_buckets = pow2_buckets 17  (* 1 .. 65536 packets *)

let create ~window () =
  if window < 1 then invalid_arg "Live.create: window must be >= 1 step";
  let mirror = Mirror.create () in
  {
    window_size = window;
    latency = Sketch.create ~buckets:latency_buckets ();
    hops = Sketch.create ~buckets:hops_buckets ();
    occupancy = Sketch.create ~buckets:occupancy_buckets ();
    edges_top = Topk.create ~k:top_k ();
    nodes_top = Topk.create ~k:top_k ();
    health = Invariants.create ();
    mirror;
    opened = Mirror.counters mirror;
    cur = -1;
    seen_step = -1;
    nevents = 0;
    windows_rev = [];
    final = None;
  }

let window_size t = t.window_size

let control (c : Mirror.counters) = c.epochs + c.height_adverts

(* Close the current window: its counts are the mirror's counters less
   those it opened with; then advance. *)
let close_window t =
  let c = Mirror.counters t.mirror and o = t.opened in
  let r =
    {
      w = t.cur;
      step_lo = t.cur * t.window_size;
      step_hi = (t.cur * t.window_size) + t.window_size - 1;
      injected = c.injected - o.injected;
      dropped = c.dropped - o.dropped;
      delivered = c.delivered - o.delivered;
      self_deliveries = c.self_deliveries - o.self_deliveries;
      sends = c.sends - o.sends;
      collisions = c.collisions - o.collisions;
      control = control c - control o;
      buffered = c.buffered;
      violations = Invariants.violation_count t.health;
      latency_p50 = Sketch.quantile t.latency 50.;
      latency_p95 = Sketch.quantile t.latency 95.;
      hops_p50 = Sketch.quantile t.hops 50.;
      hops_p95 = Sketch.quantile t.hops 95.;
      occupancy_p50 = Sketch.quantile t.occupancy 50.;
      occupancy_p95 = Sketch.quantile t.occupancy 95.;
      top_edges = Topk.top t.edges_top;
    }
  in
  t.windows_rev <- r :: t.windows_rev;
  t.opened <- c;
  t.cur <- t.cur + 1

let feed t ev =
  (match t.final with
  | Some _ -> invalid_arg "Live.feed: finish was already called on this recorder"
  | None -> ());
  let step = Event.step ev in
  if step < 0 then invalid_arg "Live.feed: negative step";
  if step < t.seen_step then
    invalid_arg
      (Printf.sprintf
         "Live.feed: out-of-order event at step %d after step %d; the live layer requires \
          the emitters' non-decreasing steps"
         step t.seen_step);
  (* The pending injection is settled first, so the sample and the
     window gauges count it. *)
  ignore (Mirror.settle t.mirror ev);
  (* One occupancy sample per observed step: the buffer level as the
     stream leaves that step. *)
  if step > t.seen_step && t.seen_step >= 0 then
    Sketch.observe t.occupancy (float_of_int (Mirror.counters t.mirror).buffered);
  let wi = step / t.window_size in
  if t.cur < 0 then t.cur <- wi
  else
    while t.cur < wi do
      close_window t
    done;
  t.seen_step <- step;
  Invariants.check t.health t.nevents ev;
  t.nevents <- t.nevents + 1;
  (match Mirror.feed t.mirror ev with
  | Some p when Mirror.delivered p ->
      Sketch.observe t.latency (float_of_int (Mirror.latency p));
      Sketch.observe t.hops (float_of_int p.hops)
  | _ -> ());
  match ev with
  | Event.Send { edge; src; dst; _ } | Event.Collide { edge; src; dst; _ } ->
      Topk.observe t.edges_top edge;
      Topk.observe t.nodes_top src;
      Topk.observe t.nodes_top dst
  | Event.Inject _ | Event.Deliver _ | Event.Epoch_change _ | Event.Height_advert _ -> ()

let attach t log = Event.add_observer log (fun _ e -> feed t e)

let feed_array t events = Array.iter (feed t) events

let finish t =
  match t.final with
  | Some c -> c
  | None ->
      ignore (Mirror.flush t.mirror);
      let totals = Mirror.counters t.mirror in
      if t.seen_step >= 0 then begin
        Sketch.observe t.occupancy (float_of_int totals.buffered);
        (* Close through the window holding the last observed step. *)
        let last = t.seen_step / t.window_size in
        while t.cur <= last do
          close_window t
        done
      end;
      let c =
        {
          steps = t.seen_step + 1;
          events = t.nevents;
          windows = List.length t.windows_rev;
          totals;
          c_violations = Invariants.violation_count t.health;
          healthy = Invariants.ok t.health && totals.anomalies = 0;
          latency_mean = Sketch.mean t.latency;
          c_latency_p50 = Sketch.quantile t.latency 50.;
          latency_p90 = Sketch.quantile t.latency 90.;
          c_latency_p95 = Sketch.quantile t.latency 95.;
          latency_p99 = Sketch.quantile t.latency 99.;
          hops_mean = Sketch.mean t.hops;
          c_hops_p50 = Sketch.quantile t.hops 50.;
          c_hops_p95 = Sketch.quantile t.hops 95.;
          occupancy_mean = Sketch.mean t.occupancy;
          c_occupancy_p50 = Sketch.quantile t.occupancy 50.;
          c_occupancy_p95 = Sketch.quantile t.occupancy 95.;
          occupancy_max = Sketch.max_seen t.occupancy;
          c_top_edges = Topk.top t.edges_top;
          top_nodes = Topk.top t.nodes_top;
        }
      in
      t.final <- Some c;
      c

let windows t = List.rev t.windows_rev

(* ------------------------------------------------------------------ *)
(* JSONL (schema adhoc-live/1)                                         *)

let schema = "adhoc-live/1"

(* Same convention as the event log: %.17g round-trips every finite
   double, so the stream is byte-identical between online and replay. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let triples xs =
  "["
  ^ String.concat ","
      (List.map (fun (key, count, err) -> Printf.sprintf "[%d,%d,%d]" key count err) xs)
  ^ "]"

let write_window oc (w : window) =
  Printf.fprintf oc
    "{\"w\":%d,\"steps\":[%d,%d],\"injected\":%d,\"dropped\":%d,\"delivered\":%d,\"self\":%d,\"sends\":%d,\"collisions\":%d,\"control\":%d,\"buffered\":%d,\"violations\":%d,\"latency_p50\":%s,\"latency_p95\":%s,\"hops_p50\":%s,\"hops_p95\":%s,\"occupancy_p50\":%s,\"occupancy_p95\":%s,\"top_edges\":%s}\n"
    w.w w.step_lo w.step_hi w.injected w.dropped w.delivered w.self_deliveries w.sends
    w.collisions w.control w.buffered w.violations (num w.latency_p50) (num w.latency_p95)
    (num w.hops_p50) (num w.hops_p95) (num w.occupancy_p50) (num w.occupancy_p95)
    (triples w.top_edges)

let write_final oc (c : cumulative) =
  Printf.fprintf oc
    "{\"final\":true,\"steps\":%d,\"events\":%d,\"windows\":%d,\"injected\":%d,\"dropped\":%d,\"delivered\":%d,\"self\":%d,\"sends\":%d,\"collisions\":%d,\"control\":%d,\"buffered\":%d,\"violations\":%d,\"healthy\":%s,\"anomalies\":%d,\"energy\":%s,\"latency_mean\":%s,\"latency_p50\":%s,\"latency_p90\":%s,\"latency_p95\":%s,\"latency_p99\":%s,\"hops_mean\":%s,\"hops_p50\":%s,\"hops_p95\":%s,\"occupancy_mean\":%s,\"occupancy_p50\":%s,\"occupancy_p95\":%s,\"occupancy_max\":%s,\"top_edges\":%s,\"top_nodes\":%s}\n"
    c.steps c.events c.windows c.totals.injected c.totals.dropped c.totals.delivered
    c.totals.self_deliveries c.totals.sends c.totals.collisions (control c.totals)
    c.totals.buffered c.c_violations
    (if c.healthy then "true" else "false")
    c.totals.anomalies (num c.totals.energy) (num c.latency_mean) (num c.c_latency_p50)
    (num c.latency_p90) (num c.c_latency_p95) (num c.latency_p99) (num c.hops_mean)
    (num c.c_hops_p50) (num c.c_hops_p95) (num c.occupancy_mean) (num c.c_occupancy_p50)
    (num c.c_occupancy_p95) (num c.occupancy_max) (triples c.c_top_edges)
    (triples c.top_nodes)

let write_jsonl t oc =
  let c = finish t in
  Printf.fprintf oc "{\"schema\":%S,\"window\":%d,\"top_k\":%d}\n" schema t.window_size top_k;
  List.iter (write_window oc) (windows t);
  write_final oc c

let save_jsonl t file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl t oc)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.  No timestamps anywhere: scrape-time is
   the scraper's business, and determinism is ours. *)

let prom_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "NaN"

let write_prometheus t oc =
  let c = finish t in
  let counter name help v =
    Printf.fprintf oc "# HELP %s %s\n# TYPE %s counter\n%s %d\n" name help name name v
  in
  let gauge name help v =
    Printf.fprintf oc "# HELP %s %s\n# TYPE %s gauge\n%s %d\n" name help name name v
  in
  let quantiles name help qs =
    Printf.fprintf oc "# HELP %s %s\n# TYPE %s summary\n" name help name;
    List.iter
      (fun (q, v) -> Printf.fprintf oc "%s{quantile=\"%s\"} %s\n" name q (prom_num v))
      qs
  in
  counter "adhoc_live_injected_total" "Admitted packet injections." c.totals.injected;
  counter "adhoc_live_dropped_total" "Injections refused by admission control."
    c.totals.dropped;
  counter "adhoc_live_delivered_total" "Delivered packets (incl. self-deliveries)."
    c.totals.delivered;
  counter "adhoc_live_sends_total" "Successful transmissions." c.totals.sends;
  counter "adhoc_live_collisions_total" "Colliding transmission attempts."
    c.totals.collisions;
  counter "adhoc_live_control_total" "Control messages (epoch changes + height adverts)."
    (control c.totals);
  counter "adhoc_live_invariant_violations_total" "Invariant violations detected online."
    c.c_violations;
  gauge "adhoc_live_buffered" "Packets still buffered." c.totals.buffered;
  gauge "adhoc_live_steps" "Simulation steps observed." c.steps;
  gauge "adhoc_live_windows" "Tumbling windows emitted." c.windows;
  gauge "adhoc_live_healthy" "1 when no invariant violation or replay anomaly was seen."
    (if c.healthy then 1 else 0);
  Printf.fprintf oc "# HELP adhoc_live_energy_total Energy spent on sends and collisions.\n";
  Printf.fprintf oc "# TYPE adhoc_live_energy_total counter\nadhoc_live_energy_total %s\n"
    (prom_num c.totals.energy);
  quantiles "adhoc_live_latency_steps" "Delivery latency in steps."
    [
      ("0.5", c.c_latency_p50);
      ("0.9", c.latency_p90);
      ("0.95", c.c_latency_p95);
      ("0.99", c.latency_p99);
    ];
  quantiles "adhoc_live_hops" "Hops per delivered packet."
    [ ("0.5", c.c_hops_p50); ("0.95", c.c_hops_p95) ];
  quantiles "adhoc_live_occupancy" "Buffered packets per observed step."
    [ ("0.5", c.c_occupancy_p50); ("0.95", c.c_occupancy_p95) ];
  Printf.fprintf oc
    "# HELP adhoc_live_edge_traffic Transmissions + collisions on the busiest edges \
     (space-saving estimate).\n# TYPE adhoc_live_edge_traffic gauge\n";
  List.iter
    (fun (edge, count, _) -> Printf.fprintf oc "adhoc_live_edge_traffic{edge=\"%d\"} %d\n" edge count)
    c.c_top_edges;
  Printf.fprintf oc
    "# HELP adhoc_live_node_traffic Transmissions + collisions touching the busiest nodes \
     (space-saving estimate).\n# TYPE adhoc_live_node_traffic gauge\n";
  List.iter
    (fun (node, count, _) -> Printf.fprintf oc "adhoc_live_node_traffic{node=\"%d\"} %d\n" node count)
    c.top_nodes

let save_prometheus t file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_prometheus t oc)
