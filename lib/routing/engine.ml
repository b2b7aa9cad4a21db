module Graph = Adhoc_graph.Graph
module Conflict = Adhoc_interference.Conflict
module Mac = Adhoc_mac.Mac
module Event = Adhoc_obs.Event
module Sparse = Buffers.Sparse

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

(* ------------------------------------------------------------------ *)
(* Incremental decision cache.

   [Balancing.best_into] over an edge depends only on the heights at its
   two endpoints (and the edge cost), and its argmax is order-independent,
   so a cached decision stays exact until a height at either endpoint
   changes.  The run's buffer watcher reports changed nodes through
   [touch]; flushing at the start of each step invalidates only the edges
   incident to them.  Per-step work therefore tracks what changed in a
   neighbourhood instead of rescanning every edge's buffers.

   Decisions are flat: direction code [2e] is edge [e]'s u -> v send and
   [2e + 1] its v -> u send, and each code has a destination in [dest]
   (-1 for no send) and a gain in [gain].  A step passes codes around,
   never a record or a boxed float.

   A lazy cache (explicit active sets) refreshes an edge when it is
   looked up.  An eager one (arbitration, where every edge is a
   candidate) also queues each edge on [stale] as it turns invalid, so
   the queue holds exactly the invalid edges, each once: all [m] at
   creation, then whatever the flushes invalidate. *)
module Cache = struct
  type t = {
    (* The graph's own endpoint arrays and CSR incidence, not copies: the
       loops below index them instead of calling [Graph] per edge. *)
    lower : int array;  (* edge e's endpoint u *)
    upper : int array;  (* and its endpoint v *)
    inc_off : int array;  (* node v's incident edges: inc_edge.(inc_off.(v) ..) *)
    inc_edge : int array;
    heights : Sparse.t;  (* the live buffer heights a sender decides on *)
    seen : Sparse.t;  (* the neighbour heights a sender decides against *)
    params : Balancing.params;
    edge_cost : float array;
    dest : int array;  (* by direction code; -1 = no send *)
    gain : float array;  (* by direction code *)
    valid : bool array;
    eager : bool;
    stale : int array;  (* eager only: the invalid edges, first [stale_count] *)
    mutable stale_count : int;
    dirty : int array;  (* nodes whose heights changed since flush, first [dirty_count] *)
    mutable dirty_count : int;
    node_dirty : bool array;
  }

  let create ~eager ~graph ~buffers ~seen ~params ~edge_cost =
    let m = Graph.num_edges graph in
    {
      lower = Graph.edge_us graph;
      upper = Graph.edge_vs graph;
      inc_off = Graph.incidence_offsets graph;
      inc_edge = Graph.incidence_edges graph;
      heights = Buffers.heights buffers;
      seen;
      params;
      edge_cost;
      dest = Array.make (2 * m) (-1);
      gain = Array.make (2 * m) 0.;
      valid = Array.make m false;
      eager;
      stale = (if eager then Array.init m Fun.id else [||]);
      stale_count = (if eager then m else 0);
      dirty = Array.make (Graph.n graph) 0;
      dirty_count = 0;
      node_dirty = Array.make (Graph.n graph) false;
    }

  let touch c v =
    if not c.node_dirty.(v) then begin
      c.node_dirty.(v) <- true;
      c.dirty.(c.dirty_count) <- v;
      c.dirty_count <- c.dirty_count + 1
    end

  (* Invalidate the edges incident to nodes touched since the last flush,
     latest-touched node first.  Called at the start of each step, so
     within a step every lookup returns the decision on start-of-step
     heights (the paper's simultaneous rule). *)
  let flush c =
    for i = c.dirty_count - 1 downto 0 do
      let v = c.dirty.(i) in
      c.node_dirty.(v) <- false;
      for j = c.inc_off.(v) to c.inc_off.(v + 1) - 1 do
        let id = c.inc_edge.(j) in
        if c.valid.(id) then begin
          c.valid.(id) <- false;
          if c.eager then begin
            c.stale.(c.stale_count) <- id;
            c.stale_count <- c.stale_count + 1
          end
        end
      done
    done;
    c.dirty_count <- 0

  let refresh c e =
    let u = c.lower.(e) and v = c.upper.(e) in
    Balancing.best_into c.heights c.seen c.params ~costs:c.edge_cost ~edge:e ~src:u ~dst:v
      ~dests:c.dest ~gains:c.gain (2 * e);
    Balancing.best_into c.heights c.seen c.params ~costs:c.edge_cost ~edge:e ~src:v ~dst:u
      ~dests:c.dest ~gains:c.gain ((2 * e) + 1);
    c.valid.(e) <- true

  let ensure c e = if not c.valid.(e) then refresh c e

  (* Parallel decision fan-out: refresh every invalidated edge among the
     first [count] entries of [act] on the domain pool, so the sequential
     scan that follows only reads cache hits.  Each task reads start-of-step
     heights (nothing mutates the buffers during the decide phase) and
     writes only its own edge's cells, so the region is par-safe; [refresh]
     is a pure function of those heights, so the cached decisions are
     bit-identical to the lazy sequential path for any pool size.  No-op
     without a pool: lookups then refresh lazily. *)
  let prepare ?pool c act ~count =
    match pool with
    | None -> ()
    | Some p ->
        Adhoc_util.Pool.parallel_for p ~label:"engine/decide" count (fun i ->
            let e = act.(i) in
            if not c.valid.(e) then refresh c e)

  (* Per-step costs (lazy caches only): the edge is re-priced and decided
     afresh. *)
  let reprice c e cost =
    c.edge_cost.(e) <- cost;
    c.valid.(e) <- false

  (* The better direction's code, -1 for neither; ties go to u -> v. *)
  let either c e =
    ensure c e;
    let f = 2 * e and b = (2 * e) + 1 in
    if c.dest.(f) < 0 then if c.dest.(b) < 0 then -1 else b
    else if c.dest.(b) >= 0 && c.gain.(b) > c.gain.(f) then b
    else f

  let sender c code =
    if code land 1 = 0 then c.lower.(code lsr 1) else c.upper.(code lsr 1)

  let receiver c code =
    if code land 1 = 0 then c.upper.(code lsr 1) else c.lower.(code lsr 1)
end

(* ------------------------------------------------------------------ *)
(* The arbitrated request set: every edge whose better direction clears
   the threshold, as ascending edge ids with each request's sender and
   benefit alongside (parallel arrays, like a {!Buffers.Sparse} row).
   These are the arrays handed to [Mac.select].  An edge enters or leaves
   by binary search when its refreshed decision appears or disappears, so
   the set costs O(stale edges) per step to keep and yields exactly what
   a scan of every edge would: the same requests in the same ascending
   order. *)
module Requests = struct
  type t = {
    ids : int array;  (* strictly ascending, first [count] live *)
    senders : int array;  (* senders.(i) is edge ids.(i)'s sender *)
    benefits : float array;  (* and that send's gain *)
    mutable count : int;
  }

  let create m =
    { ids = Array.make m 0; senders = Array.make m 0; benefits = Array.make m 0.; count = 0 }

  (* Index of [e] when present, otherwise [lnot insertion_point]. *)
  let find s e =
    let lo = ref 0 and hi = ref s.count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.ids.(mid) < e then lo := mid + 1 else hi := mid
    done;
    if !lo < s.count && s.ids.(!lo) = e then !lo else lnot !lo

  (* Edge [e]'s request on this step's heights ([Cache.either]).  Entries
     shift in plain loops: [Array.blit] into a long-lived array goes
     through the write barrier once per element. *)
  let update s (c : Cache.t) e =
    let code = Cache.either c e in
    let i = find s e in
    if code < 0 then begin
      if i >= 0 then begin
        for j = i to s.count - 2 do
          s.ids.(j) <- s.ids.(j + 1);
          s.senders.(j) <- s.senders.(j + 1);
          s.benefits.(j) <- s.benefits.(j + 1)
        done;
        s.count <- s.count - 1
      end
    end
    else begin
      let i =
        if i >= 0 then i
        else begin
          let i = lnot i in
          for j = s.count downto i + 1 do
            s.ids.(j) <- s.ids.(j - 1);
            s.senders.(j) <- s.senders.(j - 1);
            s.benefits.(j) <- s.benefits.(j - 1)
          done;
          s.ids.(i) <- e;
          s.count <- s.count + 1;
          i
        end
      in
      s.senders.(i) <- Cache.sender c code;
      s.benefits.(i) <- c.Cache.gain.(code)
    end

  (* Re-decide every edge on the cache's stale queue (fanned out on the
     pool like [Cache.prepare]), update its request in queue order, and
     empty the queue.  Every edge is valid afterwards, so the rest of the
     step reads cache hits. *)
  let follow ?pool s (c : Cache.t) =
    Cache.prepare ?pool c c.Cache.stale ~count:c.Cache.stale_count;
    for i = 0 to c.Cache.stale_count - 1 do
      update s c c.Cache.stale.(i)
    done;
    c.Cache.stale_count <- 0
end

(* Colour classes of a conflict graph as flat arrays of edge ids, in
   ascending or descending id order.  An edgeless graph has one empty
   class, so [classes.(step mod length)] is always defined. *)
let colour_classes ~descending conflict =
  let colors, k = Conflict.greedy_coloring conflict in
  let m = Array.length colors in
  let size = Array.make (max k 1) 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) colors;
  let classes = Array.map (fun s -> Array.make s 0) size in
  let fill = Array.make (max k 1) 0 in
  for i = 0 to m - 1 do
    let e = if descending then m - 1 - i else i in
    let c = colors.(e) in
    classes.(c).(fill.(c)) <- e;
    fill.(c) <- fill.(c) + 1
  done;
  classes

(* ------------------------------------------------------------------ *)
(* Colour-class padding.  The classes are precomputed once per run; the
   conflict rows are read in place.  Per step, each base edge stamps
   itself and its conflict row into [blocked]; a class edge is kept
   exactly when its stamp is stale.  Conflict rows are symmetric, so
   "some base edge lists [id] in its row" is the same test as "[id]'s row
   holds a base edge", and the step costs O(|base|·I + |class|) with no
   allocation. *)
module Pad = struct
  type t = {
    conflict : Conflict.t;
    by_class : int array array;  (* ascending edge ids per colour class *)
    blocked : int array;  (* per-edge stamp of the last call that blocked it *)
    mutable stamp : int;
  }

  let create conflict =
    {
      conflict;
      by_class = colour_classes ~descending:false conflict;
      blocked = Array.make (Conflict.num_edges conflict) 0;
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
        Conflict.stamp_row p.conflict p.blocked e p.stamp;
        push_base p into (k + 1) rest

  (* Writes [base] plus the step's colour class into the scratch array
     [into], skipping class edges that are in the base or interfere with
     a base edge; extras follow the base in ascending edge-id order.
     Returns the live count. *)
  let active p ~step ~into base =
    p.stamp <- p.stamp + 1;
    let k = ref (push_base p into 0 base) in
    let cls = p.by_class.(step mod Array.length p.by_class) in
    for i = 0 to Array.length cls - 1 do
      let id = cls.(i) in
      if p.blocked.(id) <> p.stamp then begin
        into.(!k) <- id;
        incr k
      end
    done;
    !k
end

(* ------------------------------------------------------------------ *)
(* The step kernel: one loop for every engine, parameterised by which
   edges are active, which neighbour heights a sender sees, and where a
   packet is absorbed. *)

type activation =
  | Given of Workload.t * Conflict.t option
  | Rounds of Conflict.t option
  | Arbitrated of Mac.t * Conflict.t option

type heights = Live | Advertised of { quantum : int; adverts : int ref }
type absorb = Destination | Group of { members : int array array; absorbed : int array }

type phase = {
  graph : Graph.t;
  cost : Adhoc_graph.Cost.t;
  activation : activation;
  steps : int;
  epoch : int option;
}

(* §3.2's advertised heights.  A cell can only drift past the quantum if
   its true height changed since it was last checked, so the watcher
   queues changed cells (deduplicated through [queued]) and each step's
   advertisement pass looks at those only.  The queue is two parallel int
   arrays, grown on demand, so queueing a cell allocates nothing. *)
type adverts = {
  quantum : int;
  broadcasts : int ref;
  advertised : Sparse.t;
  queued : Sparse.t;  (* 1 = cell already queued *)
  mutable cell_node : int array;  (* queued cells (node, destination), oldest first *)
  mutable cell_dest : int array;
  mutable cells : int;  (* live length of [cell_node] and [cell_dest] *)
  announced : bool array;  (* node already counted in this pass *)
}

let queue_cell a v d =
  let n = a.cells in
  if n = Array.length a.cell_node then begin
    let grow old =
      let b = Array.make (max 16 (2 * n)) 0 in
      Array.blit old 0 b 0 n;
      b
    in
    a.cell_node <- grow a.cell_node;
    a.cell_dest <- grow a.cell_dest
  end;
  a.cell_node.(n) <- v;
  a.cell_dest.(n) <- d;
  a.cells <- n + 1

type counters = {
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable sends : int;
  mutable failed_sends : int;
  mutable peak_height : int;
}

(* A record of floats only is stored flat, so adding to it boxes
   nothing. *)
type spent = { mutable total_cost : float }

type on_step = step:int -> delivered:int -> buffered:int -> unit

(* Everything that outlives a phase. *)
type k = {
  who : string;  (* the entry point, for argument errors *)
  n : int;
  params : Balancing.params;
  buffers : Buffers.t;
  adverts : adverts option;
  absorb : absorb;
  members : Sparse.t;  (* with [Group], node v's row holds v's groups *)
  c : counters;
  spent : spent;
  obs : Adhoc_obs.sink option;
  events : Event.log option;
  height_hist : Adhoc_obs.Metrics.histogram option;
  on_step : on_step option;
}

(* Observability.  Every instrumentation site is a single [match] on the
   optional sink, so a run without one stays allocation-free on the hot
   path and bit-identical in behaviour (pinned by test). *)

let span_enter k label =
  match k.obs with None -> () | Some o -> Adhoc_obs.Span.enter o.Adhoc_obs.spans label

let span_leave k =
  match k.obs with None -> () | Some o -> Adhoc_obs.Span.leave o.Adhoc_obs.spans

(* Absorption, decided here only: a packet keyed [key] is absorbed at
   [node] when [node] is its destination, or, for anycast, when [node]
   belongs to group [key - n] (group keys are the ones >= n).  One
   expression, inlined into the sort comparator. *)
let[@inline] absorbs k ~node ~key =
  node = key || (key >= k.n && Sparse.get k.members node (key - k.n) <> 0)

(* When several simultaneous decisions contend for the same source buffer,
   application order decides who wins.  Deliveries first, then larger gains:
   both strictly decrease the system's potential, and this prevents a lone
   packet from being bounced backwards past a pending delivery. *)
let application_order k (c : Cache.t) a b =
  match
    ( absorbs k ~node:(Cache.receiver c a) ~key:c.Cache.dest.(a),
      absorbs k ~node:(Cache.receiver c b) ~key:c.Cache.dest.(b) )
  with
  | true, false -> -1
  | false, true -> 1
  | _ -> Float.compare c.Cache.gain.(b) c.Cache.gain.(a)

(* Stable merge sort of [codes.(lo .. hi - 1)] by [application_order],
   through [tmp]: a right-hand code moves ahead only when it strictly
   precedes, so equal codes keep their order.  For a total preorder every
   stable sort gives one order, so this is [List.stable_sort]'s. *)
let rec sort_codes k c codes tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_codes k c codes tmp lo mid;
    sort_codes k c codes tmp mid hi;
    for o = lo to hi - 1 do
      tmp.(o) <- codes.(o)
    done;
    let i = ref lo and j = ref mid in
    for o = lo to hi - 1 do
      if !j < hi && (!i >= mid || application_order k c tmp.(!j) tmp.(!i) < 0) then begin
        codes.(o) <- tmp.(!j);
        incr j
      end
      else begin
        codes.(o) <- tmp.(!i);
        incr i
      end
    done
  end

let deliver k node =
  k.c.delivered <- k.c.delivered + 1;
  match k.absorb with
  | Destination -> ()
  | Group { absorbed; _ } -> absorbed.(node) <- absorbed.(node) + 1

(* Decisions are taken on start-of-step heights (the paper's rule is
   simultaneous across edges); application checks that the source buffer
   still holds a packet, since several edges may have decided to drain the
   same buffer.  An unavailable send does not transmit and costs nothing. *)
let attempt k (cache : Cache.t) ~step code ~collided =
  let edge = code lsr 1 in
  let src = Cache.sender cache code and dst = Cache.receiver cache code in
  let dest = cache.Cache.dest.(code) in
  if Buffers.height k.buffers src dest > 0 then begin
    let c = k.c in
    c.sends <- c.sends + 1;
    k.spent.total_cost <- k.spent.total_cost +. cache.Cache.edge_cost.(edge);
    if collided then begin
      c.failed_sends <- c.failed_sends + 1;
      match k.events with
      | None -> ()
      | Some log -> Event.collide log ~step ~edge ~src ~dst ~dest ~cost:cache.Cache.edge_cost.(edge)
    end
    else begin
      Buffers.remove k.buffers src dest;
      let delivered = absorbs k ~node:dst ~key:dest in
      if delivered then deliver k dst
      else begin
        Buffers.force_add k.buffers dst dest;
        c.peak_height <- max c.peak_height (Buffers.height k.buffers dst dest)
      end;
      match k.events with
      | None -> ()
      | Some log ->
          Event.send log ~step ~edge ~src ~dst ~dest ~cost:cache.Cache.edge_cost.(edge)
            ~outcome:(if delivered then Event.Delivered else Event.Moved);
          if delivered then Event.deliver log ~step ~dst:dest ~self:false
    end
  end

(* The single injection site, so caller-supplied ids are validated here:
   [dst] must be a node (or, for anycast, a group index), [src] a node. *)
let inject k ~step (src, dst) =
  let key =
    match k.absorb with
    | Destination ->
        if dst < 0 || dst >= k.n then
          invalid_arg (Printf.sprintf "%s: injection destination %d is not a node" k.who dst);
        dst
    | Group { members; _ } ->
        if dst < 0 || dst >= Array.length members then invalid_arg (k.who ^ ": bad group index");
        k.n + dst
  in
  if src < 0 || src >= k.n then
    invalid_arg (Printf.sprintf "%s: injection source %d is not a node" k.who src);
  let c = k.c in
  let absorbed = absorbs k ~node:src ~key in
  if absorbed || Buffers.inject k.buffers ~cap:k.params.Balancing.capacity src key then begin
    c.injected <- c.injected + 1;
    (match k.events with
    | None -> ()
    | Some log ->
        Event.inject log ~step ~src ~dst:key ~admitted:true;
        if absorbed then Event.deliver log ~step ~dst:key ~self:true);
    (* A packet injected where it is absorbed never enters a buffer. *)
    if absorbed then deliver k src
    else c.peak_height <- max c.peak_height (Buffers.height k.buffers src key)
  end
  else begin
    c.dropped <- c.dropped + 1;
    match k.events with
    | None -> ()
    | Some log -> Event.inject log ~step ~src ~dst:key ~admitted:false
  end

(* Top-level loops rather than [List.iter] closures, so a step allocates
   no closure for them. *)
let rec inject_all k ~step = function
  | [] -> ()
  | pair :: rest ->
      inject k ~step pair;
      inject_all k ~step rest

(* One advertisement pass: every node whose heights drifted beyond the
   quantum since last advertised broadcasts once.  The queued cells are
   walked newest first, which fixes the order of [Height_advert]
   events. *)
let advertise k a ~step =
  let announced = ref 0 in
  for i = a.cells - 1 downto 0 do
    let v = a.cell_node.(i) and d = a.cell_dest.(i) in
    Sparse.set a.queued v d 0;
    let h = Buffers.height k.buffers v d in
    if abs (h - Sparse.get a.advertised v d) > a.quantum then begin
      Sparse.set a.advertised v d h;
      if not a.announced.(v) then begin
        a.announced.(v) <- true;
        (match k.events with
        | None -> ()
        | Some log -> Event.height_advert log ~step ~node:v);
        incr announced
      end
    end
  done;
  if !announced > 0 then begin
    a.broadcasts := !(a.broadcasts) + !announced;
    for i = 0 to a.cells - 1 do
      a.announced.(a.cell_node.(i)) <- false
    done
  end;
  a.cells <- 0

let height_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

(* End of step: the max-height histogram and [on_step]. *)
let sample k ~step =
  (match k.height_hist with
  | None -> ()
  | Some h -> Adhoc_obs.Metrics.observe h (float_of_int (Buffers.max_height k.buffers)));
  match k.on_step with
  | Some f -> f ~step ~delivered:k.c.delivered ~buffered:(Buffers.total k.buffers)
  | None -> ()

(* Copies a base activation list into the active-edge array; returns the
   count. *)
let rec fill into k = function
  | [] -> k
  | e :: rest ->
      into.(k) <- e;
      fill into (k + 1) rest

(* A granted attempt collides when a granted edge interferes with it
   (conflict rows never contain the edge itself). *)
let collided collisions granted_mark e =
  match collisions with None -> false | Some c -> Conflict.row_marked c granted_mark e

(* Runs one phase's steps [first, first + steps) on its topology. *)
let run_phase k ?pool ?cost_at ~injections ~first (ph : phase) =
  let graph = ph.graph in
  let m = Graph.num_edges graph in
  let edge_cost = Array.init m (fun e -> ph.cost (Graph.length graph e)) in
  let seen = match k.adverts with None -> Buffers.heights k.buffers | Some a -> a.advertised in
  let eager = match ph.activation with Arbitrated _ -> true | Given _ | Rounds _ -> false in
  let cache = Cache.create ~eager ~graph ~buffers:k.buffers ~seen ~params:k.params ~edge_cost in
  (* The advertised view is exact through the cache: an advertisement
     only changes a cell whose true height changed during the previous
     step, and that change already touched the node, so the next flush
     invalidates every edge whose advertised heights moved. *)
  Buffers.set_watcher k.buffers
    (match k.adverts with
    | None -> fun v _ -> Cache.touch cache v
    | Some a ->
        fun v d ->
          Cache.touch cache v;
          if Sparse.get a.queued v d = 0 then begin
            Sparse.set a.queued v d 1;
            queue_cell a v d
          end);
  (match (ph.epoch, k.events) with
  | Some epoch, Some log -> Event.epoch_change log ~step:first ~epoch
  | _ -> ());
  let advertise_step t =
    match k.adverts with
    | None -> ()
    | Some a ->
        span_enter k "engine/advertise";
        advertise k a ~step:t;
        span_leave k
  in
  (* Steps over an explicit active set: [activate t] writes step [t]'s
     edges into [active] and returns their count. *)
  let listed_steps active activate =
    (* The step's decision codes and the merge sort's buffer, grown to the
       largest active set met so far rather than sized for every edge. *)
    let codes = ref [||] and tmp = ref [||] in
    for t = first to first + ph.steps - 1 do
      advertise_step t;
      let count = activate t in
      if Array.length !codes < 2 * count then begin
        codes := Array.make (2 * count) 0;
        tmp := Array.make (2 * count) 0
      end;
      let codes = !codes and tmp = !tmp in
      (* Decide every send on the step's starting heights, then apply. *)
      span_enter k "engine/decide";
      Cache.flush cache;
      (match cost_at with
      | None -> ()
      | Some f ->
          for i = 0 to count - 1 do
            let e = active.(i) in
            Cache.reprice cache e (f ~step:t ~edge:e)
          done);
      (* Fan the decisions out on the pool (no-op without one), then
         list the codes sequentially in active order, u -> v first, so
         the applied sequence is bit-identical for every [--jobs]. *)
      Cache.prepare ?pool cache active ~count;
      let n = ref 0 in
      for i = 0 to count - 1 do
        let e = active.(i) in
        Cache.ensure cache e;
        if cache.Cache.dest.(2 * e) >= 0 then begin
          codes.(!n) <- 2 * e;
          incr n
        end;
        if cache.Cache.dest.((2 * e) + 1) >= 0 then begin
          codes.(!n) <- (2 * e) + 1;
          incr n
        end
      done;
      sort_codes k cache codes tmp 0 !n;
      span_leave k;
      span_enter k "engine/apply";
      for i = 0 to !n - 1 do
        attempt k cache ~step:t codes.(i) ~collided:false
      done;
      inject_all k ~step:t (injections t);
      span_leave k;
      sample k ~step:t
    done
  in
  match ph.activation with
  | Given (w, pad) -> (
      let active = Array.make (max m 1) 0 in
      let base t = if t < w.Workload.horizon then w.Workload.activations.(t) else [] in
      match Option.map Pad.create pad with
      | Some p -> listed_steps active (fun t -> Pad.active p ~step:t ~into:active (base t))
      | None -> listed_steps active (fun t -> fill active 0 (base t)))
  | Rounds conflict ->
      let classes =
        match conflict with
        | Some c -> colour_classes ~descending:true c
        | None -> [| Array.init m Fun.id |]
      in
      let active = Array.make (max m 1) 0 in
      listed_steps active (fun t ->
          let cls = classes.(t mod Array.length classes) in
          for i = 0 to Array.length cls - 1 do
            active.(i) <- cls.(i)
          done;
          Array.length cls)
  | Arbitrated (mac, collisions) ->
      let mac = match k.obs with None -> mac | Some o -> Mac.instrument o mac in
      (* Scratch marks for the granted set, so collision checks walk an
         edge's interference neighbourhood instead of the granted list. *)
      let granted_mark = Array.make m false in
      (* Every edge is a candidate each step, but only an edge at a node
         whose heights changed can change its request: the eager cache
         queues exactly those, and the request set follows them. *)
      let requests = Requests.create m in
      let granted = Array.make m 0 and codes = Array.make m 0 and tmp = Array.make m 0 in
      for t = first to first + ph.steps - 1 do
        advertise_step t;
        (* Requests: the best prospective send per edge on the step's
           starting heights; the MAC arbitrates outside the engine spans. *)
        span_enter k "engine/decide";
        Cache.flush cache;
        Requests.follow ?pool requests cache;
        span_leave k;
        let count =
          mac.Mac.select ~step:t ~edge:requests.Requests.ids ~sender:requests.Requests.senders
            ~benefit:requests.Requests.benefits ~count:requests.Requests.count ~granted
        in
        span_enter k "engine/apply";
        for i = 0 to count - 1 do
          let e = requests.Requests.ids.(granted.(i)) in
          codes.(i) <- Cache.either cache e;
          granted_mark.(e) <- true
        done;
        sort_codes k cache codes tmp 0 count;
        for i = 0 to count - 1 do
          let code = codes.(i) in
          attempt k cache ~step:t code ~collided:(collided collisions granted_mark (code lsr 1))
        done;
        for i = 0 to count - 1 do
          granted_mark.(codes.(i) lsr 1) <- false
        done;
        inject_all k ~step:t (injections t);
        span_leave k;
        sample k ~step:t
      done

let run ?obs ?pool ?on_step ?cost_at ~who ~params ~heights ~absorb ~injections phases =
  let n = match phases with [] -> 0 | (ph : phase) :: _ -> Graph.n ph.graph in
  List.iter
    (fun (ph : phase) ->
      if Graph.n ph.graph <> n then invalid_arg (who ^ ": phases disagree on node count"))
    phases;
  let buffers = Buffers.create n in
  let adverts =
    match heights with
    | Live -> None
    | Advertised { quantum; adverts } ->
        if quantum < 0 then invalid_arg (Printf.sprintf "%s: negative quantum %d" who quantum);
        Some
          {
            quantum;
            broadcasts = adverts;
            advertised = Sparse.create n;
            queued = Sparse.create n;
            cell_node = [||];
            cell_dest = [||];
            cells = 0;
            announced = Array.make n false;
          }
  in
  let members = Sparse.create n in
  (match absorb with
  | Destination -> ()
  | Group { members = groups; absorbed } ->
      if Array.length absorbed <> n then
        invalid_arg
          (Printf.sprintf "%s: absorbed has length %d, not the node count %d" who
             (Array.length absorbed) n);
      Array.iteri
        (fun gi vs ->
          if Array.length vs = 0 then invalid_arg (Printf.sprintf "%s: group %d is empty" who gi);
          Array.iter
            (fun v ->
              if v < 0 || v >= n then
                invalid_arg (Printf.sprintf "%s: group %d member %d is not a node" who gi v);
              Sparse.set members v gi 1)
            vs)
        groups);
  let adverts_before = match heights with Live -> 0 | Advertised { adverts; _ } -> !adverts in
  let height_hist =
    match obs with
    | None -> None
    | Some o ->
        Some
          (Adhoc_obs.Metrics.histogram o.Adhoc_obs.metrics "engine.step_max_height"
             ~buckets:height_buckets)
  in
  let k =
    {
      who;
      n;
      params;
      buffers;
      adverts;
      absorb;
      members;
      c =
        {
          injected = 0;
          dropped = 0;
          delivered = 0;
          sends = 0;
          failed_sends = 0;
          peak_height = 0;
        };
      spent = { total_cost = 0. };
      obs;
      events = Adhoc_obs.events obs;
      height_hist;
      on_step;
    }
  in
  let steps =
    List.fold_left
      (fun first (ph : phase) ->
        run_phase k ?pool ?cost_at ~injections ~first ph;
        first + ph.steps)
      0 phases
  in
  let c = k.c in
  let stats =
    {
      steps;
      injected = c.injected;
      dropped = c.dropped;
      delivered = c.delivered;
      sends = c.sends;
      failed_sends = c.failed_sends;
      total_cost = k.spent.total_cost;
      peak_height = c.peak_height;
      remaining = Buffers.total buffers;
    }
  in
  (* End-of-run snapshot into the metrics registry: totals as counters
     (they accumulate across runs sharing a sink), extrema and leftovers
     as gauges. *)
  (match obs with
  | None -> ()
  | Some o ->
      let m = o.Adhoc_obs.metrics in
      let count name v = Adhoc_obs.Metrics.add (Adhoc_obs.Metrics.counter m name) v in
      let gauge name v = Adhoc_obs.Metrics.set (Adhoc_obs.Metrics.gauge m name) v in
      count "engine.steps" stats.steps;
      count "engine.injected" stats.injected;
      count "engine.dropped" stats.dropped;
      count "engine.delivered" stats.delivered;
      count "engine.sends" stats.sends;
      count "engine.failed_sends" stats.failed_sends;
      gauge "engine.total_cost" stats.total_cost;
      gauge "engine.peak_height" (float_of_int stats.peak_height);
      gauge "engine.remaining" (float_of_int stats.remaining);
      match heights with
      | Live -> ()
      | Advertised { adverts; _ } -> count "engine.height_adverts" (!adverts - adverts_before));
  stats

let workload_injections (w : Workload.t) t =
  if t < w.Workload.horizon then w.Workload.injections.(t) else []

let run_mac_given ?(cooldown = 0) ?obs ?pool ?on_step ?cost_at ?pad ~graph ~cost ~params
    (w : Workload.t) =
  run ?obs ?pool ?on_step ?cost_at ~who:"Engine.run_mac_given" ~params ~heights:Live
    ~absorb:Destination ~injections:(workload_injections w)
    [
      {
        graph;
        cost;
        activation = Given (w, pad);
        steps = w.Workload.horizon + cooldown;
        epoch = None;
      };
    ]

let run_with_mac ?(cooldown = 0) ?obs ?pool ?on_step ?collisions ~graph ~cost ~params ~mac
    (w : Workload.t) =
  run ?obs ?pool ?on_step ~who:"Engine.run_with_mac" ~params ~heights:Live ~absorb:Destination
    ~injections:(workload_injections w)
    [
      {
        graph;
        cost;
        activation = Arbitrated (mac, collisions);
        steps = w.Workload.horizon + cooldown;
        epoch = None;
      };
    ]
