(* Live streaming telemetry: the Sketch quantile error bound against the
   exact Stats.percentile, the Topk space-saving guarantees against an
   exact oracle, step-keyed windowing (gap windows, rejection of
   out-of-order feeds), the emitters' monotone-step contract, and the
   determinism contract the adhoc-live/1 stream is built around: online
   capture, offline replay and every --jobs setting produce the same
   bytes. *)

module Obs = Adhoc_obs
module Event = Adhoc_obs.Event
module Live = Adhoc_obs.Live
module Sketch = Adhoc_obs.Sketch
module Topk = Adhoc_obs.Topk
module Stats = Adhoc_util.Stats
module Pool = Adhoc_util.Pool
module Pipeline = Adhoc.Pipeline
open Helpers

(* ------------------------------------------------------------------ *)
(* Sketch                                                              *)

let test_sketch_basic () =
  let s = Sketch.uniform ~width:1. ~count:10 () in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Sketch.quantile s 50.));
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Sketch.mean s));
  Sketch.observe s Float.nan;
  Alcotest.(check int) "nan carries no rank" 0 (Sketch.count s);
  List.iter (Sketch.observe s) [ 0.5; 1.5; 2.5; 100. ];
  Alcotest.(check int) "count" 4 (Sketch.count s);
  check_close "mean" (104.5 /. 4.) (Sketch.mean s);
  check_close "min" 0.5 (Sketch.min_seen s);
  check_close "max" 100. (Sketch.max_seen s);
  (* The 100. observation lands in the overflow bucket, which answers
     with the observed maximum rather than a bucket bound. *)
  check_close "overflow answered with max" 100. (Sketch.quantile s 100.);
  let cs = Sketch.counts s in
  Alcotest.(check int) "bounded buckets + overflow" 11 (Array.length cs);
  Alcotest.(check int) "overflow holds one observation" 1 cs.(Array.length cs - 1);
  Alcotest.(check int) "counts partition the stream" 4 (Array.fold_left ( + ) 0 cs)

let test_sketch_rejects () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty bounds" true (raises (fun () -> Sketch.create ~buckets:[||] ()));
  Alcotest.(check bool) "non-increasing bounds" true
    (raises (fun () -> Sketch.create ~buckets:[| 1.; 1. |] ()));
  Alcotest.(check bool) "non-finite bound" true
    (raises (fun () -> Sketch.create ~buckets:[| 1.; Float.infinity |] ()));
  let s = Sketch.uniform ~width:1. ~count:4 () in
  Sketch.observe s 1.;
  Alcotest.(check bool) "p > 100" true (raises (fun () -> Sketch.quantile s 101.));
  Alcotest.(check bool) "p < 0" true (raises (fun () -> Sketch.quantile s (-1.)))

let test_sketch_vs_exact =
  qtest "uniform sketch quantile within one bucket width of Stats.percentile" ~count:200
    seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 200 in
      let width = 0.5 +. Prng.float rng 4. in
      let count = 8 + Prng.int rng 56 in
      (* Keep every sample inside the bounded buckets so the width bound
         applies (overflow answers with the max instead). *)
      let limit = width *. float_of_int count in
      let xs = Array.init n (fun _ -> Prng.float rng limit) in
      let s = Sketch.uniform ~width ~count () in
      Array.iter (Sketch.observe s) xs;
      List.for_all
        (fun p ->
          let exact = Stats.percentile xs p in
          let est = Sketch.quantile s p in
          exact <= est && est -. exact <= width +. 1e-9)
        [ 0.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ])

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)

let test_topk_exact_under_capacity () =
  let t = Topk.create ~k:4 () in
  List.iter (Topk.observe t) [ 1; 2; 1; 3; 1; 2 ];
  Alcotest.(check (list (triple int int int)))
    "counts exact, sorted by count desc then key"
    [ (1, 3, 0); (2, 2, 0); (3, 1, 0) ]
    (Topk.top t);
  Alcotest.(check int) "total" 6 (Topk.total t);
  Alcotest.(check int) "capacity" 4 (Topk.capacity t)

let test_topk_rejects () =
  Alcotest.(check bool) "k < 1" true
    (try ignore (Topk.create ~k:0 ()); false with Invalid_argument _ -> true)

let exact_counts stream =
  let h = Hashtbl.create 16 in
  List.iter
    (fun k -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    stream;
  h

let test_topk_vs_oracle =
  qtest "space-saving guarantees against the exact oracle" ~count:200 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let k = 2 + Prng.int rng 6 in
      let alphabet = k + 1 + Prng.int rng 12 in
      let n = 1 + Prng.int rng 400 in
      let stream = List.init n (fun _ -> Prng.int rng alphabet) in
      let t = Topk.create ~k () in
      List.iter (Topk.observe t) stream;
      let h = exact_counts stream in
      let truth key = Option.value ~default:0 (Hashtbl.find_opt h key) in
      let top = Topk.top t in
      let total = Topk.total t in
      let tracked_ok =
        List.for_all
          (fun (key, count, err) ->
            let tr = truth key in
            tr <= count && count - err <= tr && err * k <= total)
          top
      in
      (* Any key whose true frequency exceeds total/k must be tracked. *)
      let heavy_ok =
        List.for_all
          (fun key ->
            (truth key * k) <= total || List.exists (fun (k', _, _) -> k' = key) top)
          (List.init alphabet (fun i -> i))
      in
      total = n && List.length top <= k && tracked_ok && heavy_ok)

let test_topk_deterministic_ties () =
  (* Equal counts order by Int.compare on the key; eviction prefers the
     largest key among minimum-count slots, so the state is a pure
     function of the stream. *)
  let t = Topk.create ~k:2 () in
  List.iter (Topk.observe t) [ 9; 3; 9; 3 ];
  Alcotest.(check (list (triple int int int)))
    "count ties break on the key" [ (3, 2, 0); (9, 2, 0) ] (Topk.top t)

(* ------------------------------------------------------------------ *)
(* Event emitters: monotone steps                                      *)

let test_event_monotone_emitters () =
  let log = Event.create () in
  Event.inject log ~step:5 ~src:0 ~dst:1 ~admitted:true;
  Event.deliver log ~step:5 ~dst:1 ~self:false;
  Alcotest.(check int) "last step tracks the emitters" 5 (Event.last_step log);
  Alcotest.(check bool) "regressing step raises" true
    (try
       Event.send log ~step:3 ~edge:0 ~src:0 ~dst:1 ~dest:1 ~cost:1. ~outcome:Event.Moved;
       false
     with Invalid_argument _ -> true);
  (* record stays unchecked so the corrupt-log invariant fixtures remain
     constructible. *)
  Event.record log (Event.Deliver { step = 0; dst = 1; self = false });
  Alcotest.(check int) "record bypasses the check" 3 (Event.length log)

let test_event_observers_compose () =
  let log = Event.create () in
  let a = ref 0 and b = ref 0 in
  Event.add_observer log (fun _ _ -> incr a);
  Event.add_observer log (fun _ _ -> incr b);
  Event.inject log ~step:0 ~src:0 ~dst:1 ~admitted:true;
  Event.deliver log ~step:0 ~dst:0 ~self:true;
  Alcotest.(check (pair int int)) "both observers saw both events" (2, 2) (!a, !b)

(* ------------------------------------------------------------------ *)
(* Live windowing                                                      *)

let test_live_empty () =
  let l = Live.create ~window:10 () in
  let c = Live.finish l in
  Alcotest.(check int) "no steps" 0 c.Live.steps;
  Alcotest.(check int) "no windows" 0 c.Live.windows;
  Alcotest.(check bool) "healthy" true c.Live.healthy;
  Alcotest.(check bool) "empty latency is nan" true (Float.is_nan c.Live.latency_mean);
  let c2 = Live.finish l in
  Alcotest.(check int) "finish is idempotent" c.Live.windows c2.Live.windows

(* One packet 0 -> 2 over two hops, with a two-step gap between them. *)
let journey_events =
  [|
    Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
    Event.Send
      { step = 1; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Moved };
    Event.Send
      {
        step = 4;
        edge = 1;
        src = 1;
        dst = 2;
        dest = 2;
        cost = 0.5;
        outcome = Event.Delivered;
      };
    Event.Deliver { step = 4; dst = 2; self = false };
  |]

let test_live_windows () =
  let l = Live.create ~window:2 () in
  Live.feed_array l journey_events;
  let c = Live.finish l in
  Alcotest.(check int) "steps = last observed + 1" 5 c.Live.steps;
  Alcotest.(check int) "three windows incl. the gap" 3 c.Live.windows;
  (match Live.windows l with
  | [ w0; w1; w2 ] ->
      Alcotest.(check (list int)) "consecutive indices" [ 0; 1; 2 ]
        [ w0.Live.w; w1.Live.w; w2.Live.w ];
      Alcotest.(check (pair int int)) "w0 covers steps 0-1" (0, 1)
        (w0.Live.step_lo, w0.Live.step_hi);
      Alcotest.(check int) "w0 injected" 1 w0.Live.injected;
      Alcotest.(check int) "w0 sends" 1 w0.Live.sends;
      Alcotest.(check int) "gap window saw no events" 0
        (w1.Live.injected + w1.Live.sends + w1.Live.delivered + w1.Live.control);
      Alcotest.(check int) "gap window still reports the buffered gauge" 1 w1.Live.buffered;
      Alcotest.(check int) "w2 delivered" 1 w2.Live.delivered;
      Alcotest.(check int) "w2 drained the buffer" 0 w2.Live.buffered
  | ws -> Alcotest.failf "expected 3 windows, got %d" (List.length ws));
  Alcotest.(check int) "cumulative delivered" 1 c.Live.totals.Obs.Mirror.delivered;
  Alcotest.(check int) "no violations" 0 c.Live.c_violations;
  Alcotest.(check bool) "healthy" true c.Live.healthy;
  check_close "latency: injected at 0, delivered at 4" 4. c.Live.latency_mean;
  check_close "two hops" 2. c.Live.hops_mean;
  check_close "energy in event order" 1.5 c.Live.totals.Obs.Mirror.energy;
  match c.Live.c_top_edges with
  | (edge, n, err) :: _ ->
      Alcotest.(check bool) "busiest edge tracked exactly" true
        ((edge = 0 || edge = 1) && n = 1 && err = 0)
  | [] -> Alcotest.fail "no top edges"

let test_live_self_delivery () =
  let l = Live.create ~window:4 () in
  Live.feed_array l
    [|
      Event.Inject { step = 0; src = 3; dst = 3; admitted = true };
      Event.Deliver { step = 0; dst = 3; self = true };
    |];
  let c = Live.finish l in
  let t = c.Live.totals in
  Alcotest.(check int) "self-delivery counted as delivered" 1 t.Obs.Mirror.delivered;
  Alcotest.(check int) "and as a self-delivery" 1 t.Obs.Mirror.self_deliveries;
  Alcotest.(check int) "nothing buffered" 0 t.Obs.Mirror.buffered;
  Alcotest.(check bool) "healthy" true c.Live.healthy

let test_live_rejects () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "window < 1" true
    (raises (fun () -> ignore (Live.create ~window:0 ())));
  let l = Live.create ~window:4 () in
  Live.feed l (Event.Inject { step = 5; src = 0; dst = 1; admitted = true });
  Alcotest.(check bool) "step regression" true
    (raises (fun () -> Live.feed l (Event.Deliver { step = 3; dst = 1; self = false })));
  Alcotest.(check bool) "negative step" true
    (raises (fun () ->
         Live.feed (Live.create ~window:4 ())
           (Event.Deliver { step = -1; dst = 1; self = false })));
  ignore (Live.finish l);
  Alcotest.(check bool) "feed after finish" true
    (raises (fun () -> Live.feed l (Event.Deliver { step = 9; dst = 1; self = false })))

(* ------------------------------------------------------------------ *)
(* Online = replay = every --jobs, byte for byte                       *)

let slurp file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file suffix f =
  let file = Filename.temp_file "live" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let jsonl_of_live l = with_temp_file ".jsonl" (fun f -> Live.save_jsonl l f; slurp f)

(* A full pipeline run (build parallelized on [jobs] domains) with an
   online Live recorder attached to the event log; returns the stream it
   wrote and the raw log for offline replay. *)
let online_stream jobs =
  Pool.with_pool ~jobs (fun pool ->
      let rng = Prng.create 42 in
      let points = Adhoc_pointset.Generators.uniform rng 60 in
      let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
      let b = Pipeline.prepare ~pool ~theta:(Float.pi /. 6.) ~range points in
      let events = Event.create () in
      let live = Live.create ~window:100 () in
      Live.attach live events;
      let obs = Obs.create ~events () in
      ignore
        (Pipeline.run_scenario1 ~obs ~horizon:400 ~attempts:300 ~flows:2
           ~rng:(Prng.create 7) b);
      (jsonl_of_live live, Event.to_array events))

let test_live_replay_identity () =
  let online, events = online_stream (env_jobs ()) in
  Alcotest.(check bool) "stream is non-trivial" true (String.length online > 200);
  let replay = Live.create ~window:100 () in
  Live.feed_array replay events;
  Alcotest.(check string) "offline replay is byte-identical" online (jsonl_of_live replay)

let test_live_jobs_invariant () =
  let s1, _ = online_stream 1 in
  let s2, _ = online_stream 2 in
  let s4, _ = online_stream 4 in
  Alcotest.(check string) "jobs 2 = jobs 1" s1 s2;
  Alcotest.(check string) "jobs 4 = jobs 1" s1 s4

let test_live_attach_composes_with_invariants () =
  (* Live.attach must not displace an already attached invariant checker
     (both are add_observer clients of the same log). *)
  let log = Event.create () in
  let checker = Obs.Invariants.create () in
  Obs.Invariants.attach checker log;
  let l = Live.create ~window:2 () in
  Live.attach l log;
  Array.iter (Event.record log) journey_events;
  let c = Live.finish l in
  Alcotest.(check int) "live saw every event" 4 c.Live.events;
  Alcotest.(check bool) "external checker also ran" true (Obs.Invariants.ok checker)

(* ------------------------------------------------------------------ *)
(* Prometheus dump                                                     *)

let test_live_prometheus () =
  let l = Live.create ~window:2 () in
  Live.feed_array l journey_events;
  let s = with_temp_file ".prom" (fun f -> Live.save_prometheus l f; slurp f) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dump contains %S" needle) true
        (contains s needle))
    [
      "# TYPE adhoc_live_delivered_total counter";
      "adhoc_live_delivered_total 1";
      "# TYPE adhoc_live_latency_steps summary";
      "adhoc_live_latency_steps{quantile=\"0.5\"}";
      "adhoc_live_healthy 1";
      "adhoc_live_edge_traffic{edge=";
    ];
  Alcotest.(check bool) "no timestamps" true (not (contains s "timestamp"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "live"
    [
      ( "sketch",
        [
          case "observe/quantile basics" test_sketch_basic;
          case "rejects bad input" test_sketch_rejects;
          test_sketch_vs_exact;
        ] );
      ( "topk",
        [
          case "exact under capacity" test_topk_exact_under_capacity;
          case "rejects k < 1" test_topk_rejects;
          test_topk_vs_oracle;
          case "deterministic tie-breaks" test_topk_deterministic_ties;
        ] );
      ( "event emitters",
        [
          case "monotone steps enforced" test_event_monotone_emitters;
          case "observers compose" test_event_observers_compose;
        ] );
      ( "windowing",
        [
          case "zero events" test_live_empty;
          case "windows, gaps and gauges" test_live_windows;
          case "self-delivery" test_live_self_delivery;
          case "rejects bad feeds" test_live_rejects;
        ] );
      ( "determinism",
        [
          case "online = offline replay, byte for byte" test_live_replay_identity;
          case "jobs 1/2/4 produce identical streams" test_live_jobs_invariant;
          case "attach composes with invariants" test_live_attach_composes_with_invariants;
        ] );
      ( "prometheus", [ case "text exposition shape" test_live_prometheus ] );
    ]
