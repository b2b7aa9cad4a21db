module Metrics = Metrics
module Span = Span
module Event = Event
module Invariants = Invariants
module Sketch = Sketch
module Topk = Topk
module Mirror = Mirror
module Live = Live
module Clock = Clock
module Gcstat = Gcstat
module Domprof = Domprof
module Chrome_trace = Chrome_trace

type sink = {
  metrics : Metrics.t;
  spans : Span.t;
  events : Event.log option;
  domprof : Domprof.t option;
}

let create ?events ?domprof ?(gc = false) () =
  { metrics = Metrics.create (); spans = Span.create ~gc ?domprof (); events; domprof }

let time obs label f =
  match obs with None -> f () | Some o -> Span.time o.spans label f

(* Chunk sizes are [i·n/k] partitions, so power-of-4-ish bounds keep the
   histogram readable from n = 1 tiles up to the 65536-node sweeps. *)
let chunk_buckets = [| 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536. |]

let attach_pool ?domprof o pool =
  let dp = match domprof with Some _ as d -> d | None -> o.domprof in
  let regions = Metrics.counter o.metrics "pool.regions" in
  let items = Metrics.counter o.metrics "pool.items" in
  let chunk_hist = Metrics.histogram o.metrics "pool.chunk_items" ~buckets:chunk_buckets in
  (* GC deltas per pool region, accumulated as word/cycle counters so
     repeated attaches (e.g. B2 swapping recorders per configuration)
     keep accumulating instead of restarting.  Owner-domain quick_stat
     word counts are domain-local in OCaml 5, so these measure the
     owner's share of each region — jobs-dependent by nature, which is
     why json_check --compare relaxes every "gc."-prefixed obs metric. *)
  let gc_minor_words = Metrics.counter o.metrics "gc.pool.minor_words" in
  let gc_promoted_words = Metrics.counter o.metrics "gc.pool.promoted_words" in
  let gc_minor = Metrics.counter o.metrics "gc.pool.minor_collections" in
  let gc_major = Metrics.counter o.metrics "gc.pool.major_collections" in
  let region_base = ref None in
  Adhoc_util.Pool.set_hooks pool
    (Some
       {
         Adhoc_util.Pool.region_enter =
           (fun ~label ~items:n ~chunks ->
             Metrics.incr regions;
             Metrics.add items n;
             for i = 0 to chunks - 1 do
               Metrics.observe chunk_hist
                 (float_of_int (((i + 1) * n / chunks) - (i * n / chunks)))
             done;
             Span.enter o.spans ("pool/" ^ label);
             (match dp with Some d -> Domprof.begin_region d ~label ~items:n | None -> ());
             region_base := Some (Gcstat.read ()));
         region_leave =
           (fun ~label:_ ->
             (match !region_base with
             | None -> ()
             | Some before ->
                 region_base := None;
                 let d = Gcstat.delta ~before ~after:(Gcstat.read ()) in
                 Metrics.add gc_minor_words (max 0 (int_of_float d.Gcstat.minor_words));
                 Metrics.add gc_promoted_words (max 0 (int_of_float d.Gcstat.promoted_words));
                 Metrics.add gc_minor (max 0 d.Gcstat.minor_collections);
                 Metrics.add gc_major (max 0 d.Gcstat.major_collections));
             (match dp with Some d -> Domprof.end_region d | None -> ());
             Span.leave o.spans);
         (* Chunk hooks run on worker domains: they may only touch the
            recorder's single-writer lanes, never the shared metrics. *)
         chunk_enter =
           (fun ~label ~slot ~lo ~hi ->
             match dp with Some d -> Domprof.begin_chunk d ~label ~slot ~lo ~hi | None -> ());
         chunk_leave =
           (fun ~label:_ ~slot ~lo:_ ~hi:_ ->
             match dp with Some d -> Domprof.end_chunk d ~slot | None -> ());
       })

let detach_pool pool = Adhoc_util.Pool.set_hooks pool None

let events obs = match obs with Some { events = Some log; _ } -> Some log | _ -> None
