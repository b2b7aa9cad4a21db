module Graph = Adhoc_graph.Graph
module Conflict = Adhoc_interference.Conflict
module Mac = Adhoc_mac.Mac

type stats = {
  steps : int;
  injected : int;
  dropped : int;
  delivered : int;
  sends : int;
  failed_sends : int;
  total_cost : float;
  peak_height : int;
  remaining : int;
}

let throughput_ratio s (opt : Workload.opt_stats) =
  if opt.Workload.deliveries = 0 then 0.
  else float_of_int s.delivered /. float_of_int opt.Workload.deliveries

let cost_ratio s (opt : Workload.opt_stats) =
  if s.delivered = 0 || opt.Workload.avg_cost <= 0. then Float.nan
  else s.total_cost /. float_of_int s.delivered /. opt.Workload.avg_cost

type counters = {
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable sends : int;
  mutable failed_sends : int;
  mutable total_cost : float;
  mutable peak_height : int;
}

let fresh_counters () =
  {
    injected = 0;
    dropped = 0;
    delivered = 0;
    sends = 0;
    failed_sends = 0;
    total_cost = 0.;
    peak_height = 0;
  }

(* ------------------------------------------------------------------ *)
(* Incremental decision cache.

   [Balancing.best_toward] over an edge depends only on the buffer heights
   at its two endpoints (and the static edge cost), and its argmax is
   order-independent, so a cached decision stays exact until a height at
   either endpoint changes.  A watcher on the buffers collects the nodes
   whose heights changed into a dirty set; flushing at the start of each
   step invalidates only the edges incident to dirty nodes.  Per-step work
   therefore tracks what changed in a neighbourhood instead of rescanning
   every edge's buffers. *)
module Cache = struct
  type t = {
    graph : Graph.t;
    buffers : Buffers.t;
    params : Balancing.params;
    edge_cost : float array;
    fwd : Balancing.decision option array;  (* u -> v, by edge id *)
    bwd : Balancing.decision option array;  (* v -> u *)
    valid : bool array;
    mutable dirty : int list;  (* nodes whose heights changed since flush *)
    node_dirty : bool array;
  }

  let create ~graph ~buffers ~params ~edge_cost =
    let m = Graph.num_edges graph in
    let c =
      {
        graph;
        buffers;
        params;
        edge_cost;
        fwd = Array.make m None;
        bwd = Array.make m None;
        valid = Array.make m false;
        dirty = [];
        node_dirty = Array.make (Graph.n graph) false;
      }
    in
    Buffers.set_watcher buffers (fun v _d ->
        if not c.node_dirty.(v) then begin
          c.node_dirty.(v) <- true;
          c.dirty <- v :: c.dirty
        end);
    c

  (* Invalidate the edges incident to nodes touched since the last flush.
     Called at the start of each step, so within a step every lookup
     returns the decision on start-of-step heights (the paper's
     simultaneous rule). *)
  let flush c =
    (match c.dirty with
    | [] -> ()
    | dirty ->
        List.iter
          (fun v ->
            c.node_dirty.(v) <- false;
            Graph.iter_neighbors c.graph v (fun _ id -> c.valid.(id) <- false))
          dirty);
    c.dirty <- []

  let refresh c e =
    let u, v = Graph.endpoints c.graph e in
    let cost = c.edge_cost.(e) in
    c.fwd.(e) <- Balancing.best_toward c.buffers c.params ~cost ~src:u ~dst:v;
    c.bwd.(e) <- Balancing.best_toward c.buffers c.params ~cost ~src:v ~dst:u;
    c.valid.(e) <- true

  (* Parallel decision fan-out: refresh every invalidated edge among the
     first [count] entries of [act] on the domain pool, so the sequential
     scan that follows only reads cache hits.  Each task reads start-of-step
     heights (nothing mutates the buffers during the decide phase) and
     writes only its own edge's cells, so the region is par-safe; [refresh]
     is a pure function of those heights, so the cached decisions are
     bit-identical to the lazy sequential path for any pool size.  No-op
     without a pool: lookups then refresh lazily as before. *)
  let prepare ?pool c act ~count =
    match pool with
    | None -> ()
    | Some p ->
        Adhoc_util.Pool.parallel_for p ~label:"engine/decide" count (fun i ->
            let e = act.(i) in
            if not c.valid.(e) then refresh c e)

  let fwd c e =
    if not c.valid.(e) then refresh c e;
    c.fwd.(e)

  let bwd c e =
    if not c.valid.(e) then refresh c e;
    c.bwd.(e)

  (* Same preference as {!Balancing.best_either}: ties go to u -> v. *)
  let either c e =
    if not c.valid.(e) then refresh c e;
    match (c.fwd.(e), c.bwd.(e)) with
    | (None, d) | (d, None) -> d
    | (Some f, Some b) as both ->
        if b.Balancing.gain > f.Balancing.gain then snd both else fst both
end

(* ------------------------------------------------------------------ *)
(* Colour-class padding.  The classes and the conflict adjacency are
   precomputed once per run.  Per step, each base edge stamps itself and
   its conflict row into [blocked]; a class edge is kept exactly when its
   stamp is stale.  Conflict rows are symmetric, so "some base edge lists
   [id] in its row" is the same test as "[id]'s row holds a base edge",
   and the step costs O(|base|·I + |class|) with no allocation. *)
module Pad = struct
  type t = {
    conflict_adj : int array array;
    by_class : int array array;  (* ascending edge ids per colour class *)
    num_classes : int;
    blocked : int array;  (* per-edge stamp of the last call that blocked it *)
    mutable stamp : int;
  }

  let create conflict =
    let colors, k = Conflict.greedy_coloring conflict in
    let m = Array.length colors in
    let class_size = Array.make (max k 1) 0 in
    for e = 0 to m - 1 do
      class_size.(colors.(e)) <- class_size.(colors.(e)) + 1
    done;
    let by_class = Array.init (max k 1) (fun c -> Array.make class_size.(c) 0) in
    let fill = Array.make (max k 1) 0 in
    for e = 0 to m - 1 do
      let c = colors.(e) in
      by_class.(c).(fill.(c)) <- e;
      fill.(c) <- fill.(c) + 1
    done;
    {
      conflict_adj = Conflict.adjacency conflict;
      by_class;
      num_classes = k;
      blocked = Array.make m 0;
      stamp = 0;
    }

  (* Copies [base] into [into] from slot [k], stamping each base edge and
     its conflict row; returns the next free slot.  A top-level loop, not
     a [List.iter] closure, so nothing is allocated. *)
  let rec push_base p into k = function
    | [] -> k
    | e :: rest ->
        into.(k) <- e;
        p.blocked.(e) <- p.stamp;
        let row = p.conflict_adj.(e) in
        for i = 0 to Array.length row - 1 do
          p.blocked.(row.(i)) <- p.stamp
        done;
        push_base p into (k + 1) rest

  (* Writes [base] plus the step's colour class into the scratch array
     [into], skipping class edges that are in the base or interfere with
     a base edge; extras follow the base in ascending edge-id order.
     Returns the live count. *)
  let active p ~step ~into base =
    p.stamp <- p.stamp + 1;
    let k = ref (push_base p into 0 base) in
    if p.num_classes > 0 then begin
      let cls = p.by_class.(step mod p.num_classes) in
      for i = 0 to Array.length cls - 1 do
        let id = cls.(i) in
        if p.blocked.(id) <> p.stamp then begin
          into.(!k) <- id;
          incr k
        end
      done
    end;
    !k
end

(* Copy a base activation list into the active-edge scratch array. *)
let fill_active into base =
  let k = ref 0 in
  List.iter
    (fun e ->
      into.(!k) <- e;
      incr k)
    base;
  !k

let do_injections ?(events : Adhoc_obs.Event.log option) ~on_inject ~step buffers
    (params : Balancing.params) counters injections =
  List.iter
    (fun (src, dst) ->
      if Buffers.inject buffers ~cap:params.Balancing.capacity src dst then begin
        counters.injected <- counters.injected + 1;
        (match events with
        | None -> ()
        | Some log ->
            Adhoc_obs.Event.inject log ~step ~src ~dst ~admitted:true;
            if src = dst then Adhoc_obs.Event.deliver log ~step ~dst ~self:true);
        (* A packet injected at its destination is absorbed immediately. *)
        if src = dst then counters.delivered <- counters.delivered + 1
        else counters.peak_height <- max counters.peak_height (Buffers.height buffers src dst);
        match on_inject with None -> () | Some f -> f ~step ~src ~dst true
      end
      else begin
        counters.dropped <- counters.dropped + 1;
        (match events with
        | None -> ()
        | Some log -> Adhoc_obs.Event.inject log ~step ~src ~dst ~admitted:false);
        match on_inject with None -> () | Some f -> f ~step ~src ~dst false
      end)
    injections

(* Decisions are taken on start-of-step heights (the paper's rule is
   simultaneous across edges); application checks that the source buffer
   still holds a packet, since several edges may have decided to drain the
   same buffer.  An unavailable send does not transmit and costs nothing. *)
let attempt_send ?(events : Adhoc_obs.Event.log option) buffers counters ~on_send ~step
    ~edge ~edge_cost decision_opt ~collided =
  match decision_opt with
  | None -> ()
  | Some d ->
      if Buffers.height buffers d.Balancing.src d.Balancing.dest > 0 then begin
        counters.sends <- counters.sends + 1;
        counters.total_cost <- counters.total_cost +. edge_cost;
        if collided then begin
          counters.failed_sends <- counters.failed_sends + 1;
          match events with
          | None -> ()
          | Some log ->
              Adhoc_obs.Event.collide log ~step ~edge ~src:d.Balancing.src
                ~dst:d.Balancing.dst ~dest:d.Balancing.dest ~cost:edge_cost
        end
        else begin
          let outcome = Balancing.apply buffers d in
          (match outcome with
          | `Delivered -> counters.delivered <- counters.delivered + 1
          | `Moved ->
              counters.peak_height <-
                max counters.peak_height
                  (Buffers.height buffers d.Balancing.dst d.Balancing.dest));
          (match events with
          | None -> ()
          | Some log -> (
              Adhoc_obs.Event.send log ~step ~edge ~src:d.Balancing.src ~dst:d.Balancing.dst
                ~dest:d.Balancing.dest ~cost:edge_cost
                ~outcome:
                  (match outcome with
                  | `Delivered -> Adhoc_obs.Event.Delivered
                  | `Moved -> Adhoc_obs.Event.Moved);
              match outcome with
              | `Delivered ->
                  Adhoc_obs.Event.deliver log ~step ~dst:d.Balancing.dest ~self:false
              | `Moved -> ()));
          match on_send with None -> () | Some f -> f ~step ~edge d outcome
        end
      end

(* ------------------------------------------------------------------ *)
(* Observability.  Every instrumentation site is a single [match] on the
   optional sink, so a run without one stays allocation-free on the hot
   path and bit-identical in behaviour (pinned by test). *)

let span_enter obs label =
  match obs with None -> () | Some o -> Adhoc_obs.Span.enter o.Adhoc_obs.spans label

let span_leave obs =
  match obs with None -> () | Some o -> Adhoc_obs.Span.leave o.Adhoc_obs.spans

(* Counter state as of the previous recorded trace sample, so each sample
   carries the deltas over its stride window and no event is lost between
   recorded steps. *)
type trace_prev = {
  mutable p_injected : int;
  mutable p_delivered : int;
  mutable p_dropped : int;
  mutable p_sends : int;
  mutable p_failed : int;
}

let fresh_prev () =
  { p_injected = 0; p_delivered = 0; p_dropped = 0; p_sends = 0; p_failed = 0 }

let record_sample tr ~n ~buffers ~counters ~prev ~step ~active_edges =
  let buffered = Buffers.total buffers in
  Adhoc_obs.Trace.record tr
    {
      Adhoc_obs.Trace.step;
      buffered;
      max_height = Buffers.max_height buffers;
      mean_height = float_of_int buffered /. float_of_int n;
      injected = counters.injected - prev.p_injected;
      delivered = counters.delivered - prev.p_delivered;
      dropped = counters.dropped - prev.p_dropped;
      sends = counters.sends - prev.p_sends;
      failed_sends = counters.failed_sends - prev.p_failed;
      active_edges;
    };
  prev.p_injected <- counters.injected;
  prev.p_delivered <- counters.delivered;
  prev.p_dropped <- counters.dropped;
  prev.p_sends <- counters.sends;
  prev.p_failed <- counters.failed_sends

let height_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

(* When several simultaneous decisions contend for the same source buffer,
   application order decides who wins.  Deliveries first, then larger gains:
   both strictly decrease the system's potential, and this prevents a lone
   packet from being bounced backwards past a pending delivery. *)
let application_order (a : Balancing.decision) (b : Balancing.decision) =
  let delivers d = d.Balancing.dst = d.Balancing.dest in
  match (delivers a, delivers b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> Float.compare b.Balancing.gain a.Balancing.gain

let finish ~steps buffers counters =
  {
    steps;
    injected = counters.injected;
    dropped = counters.dropped;
    delivered = counters.delivered;
    sends = counters.sends;
    failed_sends = counters.failed_sends;
    total_cost = counters.total_cost;
    peak_height = counters.peak_height;
    remaining = Buffers.total buffers;
  }

(* End-of-run snapshot into the metrics registry: totals as counters (they
   accumulate across runs sharing a sink), extrema and leftovers as
   gauges. *)
let record_stats obs (s : stats) =
  match obs with
  | None -> ()
  | Some o ->
      let m = o.Adhoc_obs.metrics in
      let c name v = Adhoc_obs.Metrics.add (Adhoc_obs.Metrics.counter m name) v in
      let g name v = Adhoc_obs.Metrics.set (Adhoc_obs.Metrics.gauge m name) v in
      c "engine.steps" s.steps;
      c "engine.injected" s.injected;
      c "engine.dropped" s.dropped;
      c "engine.delivered" s.delivered;
      c "engine.sends" s.sends;
      c "engine.failed_sends" s.failed_sends;
      g "engine.total_cost" s.total_cost;
      g "engine.peak_height" (float_of_int s.peak_height);
      g "engine.remaining" (float_of_int s.remaining)

(* Per-run observability bundle shared with the engine variants
   ({!Dynamic_engine}, {!Quantized_engine}): span scopes, the per-step
   max-height histogram, stride-gated trace samples with delta counters,
   and the end-of-run metrics flush — so a variant gets PR 2 parity from
   four calls instead of reimplementing the bookkeeping. *)
module Run_obs = struct
  type t = {
    obs : Adhoc_obs.sink option;
    n : int;
    height_hist : Adhoc_obs.Metrics.histogram option;
    prev : trace_prev;
  }

  let create obs ~n =
    let height_hist =
      match obs with
      | None -> None
      | Some o ->
          Some
            (Adhoc_obs.Metrics.histogram o.Adhoc_obs.metrics "engine.step_max_height"
               ~buckets:height_buckets)
    in
    { obs; n; height_hist; prev = fresh_prev () }

  let enter t label = span_enter t.obs label
  let leave t = span_leave t.obs

  let sample t ~buffers ~step ~injected ~delivered ~dropped ~sends ~failed_sends
      ~active_edges =
    (match t.height_hist with
    | None -> ()
    | Some h -> Adhoc_obs.Metrics.observe h (float_of_int (Buffers.max_height buffers)));
    match t.obs with
    | Some { Adhoc_obs.trace = Some tr; _ } when Adhoc_obs.Trace.wants tr ~step ->
        let buffered = Buffers.total buffers in
        Adhoc_obs.Trace.record tr
          {
            Adhoc_obs.Trace.step;
            buffered;
            max_height = Buffers.max_height buffers;
            mean_height = float_of_int buffered /. float_of_int t.n;
            injected = injected - t.prev.p_injected;
            delivered = delivered - t.prev.p_delivered;
            dropped = dropped - t.prev.p_dropped;
            sends = sends - t.prev.p_sends;
            failed_sends = failed_sends - t.prev.p_failed;
            active_edges;
          };
        t.prev.p_injected <- injected;
        t.prev.p_delivered <- delivered;
        t.prev.p_dropped <- dropped;
        t.prev.p_sends <- sends;
        t.prev.p_failed <- failed_sends
    | _ -> ()

  let finish t stats = record_stats t.obs stats
end

let run_mac_given ?(cooldown = 0) ?obs ?pool ?on_step ?on_send ?on_inject ?cost_at ?pad
    ~graph ~cost ~params (w : Workload.t) =
  let n = Graph.n graph in
  let m = Graph.num_edges graph in
  let buffers = Buffers.create n in
  let counters = fresh_counters () in
  let prev = fresh_prev () in
  let events = Adhoc_obs.events obs in
  let height_hist =
    match obs with
    | None -> None
    | Some o ->
        Some
          (Adhoc_obs.Metrics.histogram o.Adhoc_obs.metrics "engine.step_max_height"
             ~buckets:height_buckets)
  in
  (* [cost_at] overrides the static costs for every edge and step, so the
     static table would be dead weight: only build it (and the decision
     cache keyed on it) when costs are static. *)
  let edge_cost =
    match cost_at with
    | Some _ -> [||]
    | None -> Array.init m (fun e -> cost (Graph.length graph e))
  in
  let cache =
    match cost_at with
    | Some _ -> None
    | None -> Some (Cache.create ~graph ~buffers ~params ~edge_cost)
  in
  let pad_state = Option.map Pad.create pad in
  let active_buf = Array.make (max m 1) 0 in
  let steps = w.Workload.horizon + cooldown in
  for t = 0 to steps - 1 do
    let base = if t < w.Workload.horizon then w.Workload.activations.(t) else [] in
    let count =
      match pad_state with
      | Some p -> Pad.active p ~step:t ~into:active_buf base
      | None -> fill_active active_buf base
    in
    (* Decide every send on the step's starting heights, then apply. *)
    let step_cost e =
      match cost_at with Some f -> f ~step:t ~edge:e | None -> edge_cost.(e)
    in
    span_enter obs "engine/decide";
    (match cache with Some c -> Cache.flush c | None -> ());
    (* Fan the decision computations out on the pool (no-op without one),
       then assemble the (edge, decision) list sequentially in the same
       active order as before — so the applied sequence is bit-identical
       for every [--jobs].  The dynamic-cost path has no cache (and an
       arbitrary [cost_at] closure), so it stays sequential. *)
    (match cache with
    | Some c -> Cache.prepare ?pool c active_buf ~count
    | None -> ());
    let decisions = ref [] in
    (match cache with
    | Some c ->
        for i = count - 1 downto 0 do
          let e = active_buf.(i) in
          (match Cache.bwd c e with
          | Some b -> decisions := (e, b) :: !decisions
          | None -> ());
          match Cache.fwd c e with
          | Some a -> decisions := (e, a) :: !decisions
          | None -> ()
        done
    | None ->
        for i = count - 1 downto 0 do
          let e = active_buf.(i) in
          let u, v = Graph.endpoints graph e in
          let c = step_cost e in
          (match Balancing.best_toward buffers params ~cost:c ~src:v ~dst:u with
          | Some b -> decisions := (e, b) :: !decisions
          | None -> ());
          match Balancing.best_toward buffers params ~cost:c ~src:u ~dst:v with
          | Some a -> decisions := (e, a) :: !decisions
          | None -> ()
        done);
    let decisions =
      List.stable_sort (fun (_, a) (_, b) -> application_order a b) !decisions
    in
    span_leave obs;
    span_enter obs "engine/apply";
    List.iter
      (fun (e, d) ->
        attempt_send ?events buffers counters ~on_send ~step:t ~edge:e
          ~edge_cost:(step_cost e) (Some d) ~collided:false)
      decisions;
    if t < w.Workload.horizon then
      do_injections ?events ~on_inject ~step:t buffers params counters
        w.Workload.injections.(t);
    span_leave obs;
    (match height_hist with
    | None -> ()
    | Some h -> Adhoc_obs.Metrics.observe h (float_of_int (Buffers.max_height buffers)));
    (match obs with
    | Some { Adhoc_obs.trace = Some tr; _ } when Adhoc_obs.Trace.wants tr ~step:t ->
        record_sample tr ~n ~buffers ~counters ~prev ~step:t ~active_edges:count
    | _ -> ());
    match on_step with
    | Some f -> f ~step:t ~delivered:counters.delivered ~buffered:(Buffers.total buffers)
    | None -> ()
  done;
  let stats = finish ~steps buffers counters in
  record_stats obs stats;
  stats

let run_with_mac ?(cooldown = 0) ?obs ?pool ?on_step ?on_send ?on_inject ?collisions ~graph
    ~cost ~params ~mac (w : Workload.t) =
  let n = Graph.n graph in
  let m = Graph.num_edges graph in
  let buffers = Buffers.create n in
  let counters = fresh_counters () in
  let prev = fresh_prev () in
  let events = Adhoc_obs.events obs in
  let height_hist =
    match obs with
    | None -> None
    | Some o ->
        Some
          (Adhoc_obs.Metrics.histogram o.Adhoc_obs.metrics "engine.step_max_height"
             ~buckets:height_buckets)
  in
  let mac = match obs with None -> mac | Some o -> Mac.instrument o mac in
  let edge_cost = Array.init m (fun e -> cost (Graph.length graph e)) in
  let cache = Cache.create ~graph ~buffers ~params ~edge_cost in
  let conflict_adj = Option.map Conflict.adjacency collisions in
  (* Scratch marks for the granted set, so collision checks walk an edge's
     interference neighbourhood instead of the whole granted list. *)
  let granted_mark = Array.make m false in
  (* Every edge is a candidate each step, so the parallel fan-out covers
     the whole edge range. *)
  let all_edges = Array.init m Fun.id in
  let steps = w.Workload.horizon + cooldown in
  for t = 0 to steps - 1 do
    (* Requests: the best prospective send per edge, decided on the step's
       starting heights.  Only edges whose endpoints changed since the
       last step are recomputed — in parallel on the pool when present. *)
    span_enter obs "engine/decide";
    Cache.flush cache;
    Cache.prepare ?pool cache all_edges ~count:m;
    let requests = ref [] in
    for e = m - 1 downto 0 do
      match Cache.either cache e with
      | None -> ()
      | Some d ->
          requests :=
            { Mac.edge = e; sender = d.Balancing.src; benefit = d.Balancing.gain }
            :: !requests
    done;
    span_leave obs;
    let granted = mac.Mac.select ~step:t !requests in
    span_enter obs "engine/apply";
    if conflict_adj <> None then
      List.iter (fun (r : Mac.request) -> granted_mark.(r.Mac.edge) <- true) granted;
    let collided (r : Mac.request) =
      match conflict_adj with
      | None -> false
      | Some adj ->
          (* Adjacency lists never contain the edge itself. *)
          Array.exists (fun e' -> granted_mark.(e')) adj.(r.Mac.edge)
    in
    let ordered =
      List.stable_sort
        (fun (a : Mac.request) (b : Mac.request) ->
          match (Cache.either cache a.Mac.edge, Cache.either cache b.Mac.edge) with
          | Some da, Some db -> application_order da db
          | _ -> 0)
        granted
    in
    List.iter
      (fun (r : Mac.request) ->
        let e = r.Mac.edge in
        attempt_send ?events buffers counters ~on_send ~step:t ~edge:e
          ~edge_cost:edge_cost.(e) (Cache.either cache e) ~collided:(collided r))
      ordered;
    if conflict_adj <> None then
      List.iter (fun (r : Mac.request) -> granted_mark.(r.Mac.edge) <- false) granted;
    if t < w.Workload.horizon then
      do_injections ?events ~on_inject ~step:t buffers params counters
        w.Workload.injections.(t);
    span_leave obs;
    (match height_hist with
    | None -> ()
    | Some h -> Adhoc_obs.Metrics.observe h (float_of_int (Buffers.max_height buffers)));
    (match obs with
    | Some { Adhoc_obs.trace = Some tr; _ } when Adhoc_obs.Trace.wants tr ~step:t ->
        record_sample tr ~n ~buffers ~counters ~prev ~step:t
          ~active_edges:(List.length granted)
    | _ -> ());
    match on_step with
    | Some f -> f ~step:t ~delivered:counters.delivered ~buffered:(Buffers.total buffers)
    | None -> ()
  done;
  let stats = finish ~steps buffers counters in
  record_stats obs stats;
  stats
