(* Observability layer: metrics registry, span profiler, event log,
   and the engine-level guarantee that an attached sink never changes the
   simulation (bit-identical stats, pinned below). *)

module Obs = Adhoc_obs
module Metrics = Adhoc_obs.Metrics
module Span = Adhoc_obs.Span
module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Pipeline = Adhoc.Pipeline
open Adhoc_routing
open Helpers

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" in
  Metrics.incr c;
  Metrics.add c 4;
  (* Registration under an existing name returns the same instrument. *)
  Metrics.incr (Metrics.counter m "hits");
  (match Metrics.snapshot m with
  | [ ("hits", Metrics.Counter 6) ] -> ()
  | _ -> Alcotest.fail "counter snapshot mismatch");
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: negative increment") (fun () -> Metrics.add c (-1))

let test_metrics_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "height" in
  Metrics.set g 3.;
  Metrics.set g 1.5;
  match Metrics.snapshot m with
  | [ ("height", Metrics.Gauge v) ] -> check_close "last write wins" 1.5 v
  | _ -> Alcotest.fail "gauge snapshot mismatch"

let test_metrics_histogram_boundaries () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" ~buckets:[| 1.; 2.; 5. |] in
  (* le-semantics: bin i counts observations in (b(i-1), b(i)]. *)
  Metrics.observe h 0.5 (* bin 0 *);
  Metrics.observe h 1.0 (* bin 0: equal to a bound lands at that bound *);
  Metrics.observe h 1.5 (* bin 1 *);
  Metrics.observe h 2.0 (* bin 1 *);
  Metrics.observe h 5.0 (* bin 2 *);
  Metrics.observe h 7.0 (* overflow *);
  match Metrics.snapshot m with
  | [ ("lat", Metrics.Histogram { buckets; counts; total; sum }) ] ->
      Alcotest.(check (array (float 0.))) "buckets" [| 1.; 2.; 5. |] buckets;
      Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] counts;
      Alcotest.(check int) "total" 6 total;
      check_close "sum" 17. sum
  | _ -> Alcotest.fail "histogram snapshot mismatch"

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge under counter name"
    (Invalid_argument "Metrics: \"x\" is already a counter") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_bad_buckets () =
  let m = Metrics.create () in
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Sketch.create: bucket bounds must be strictly increasing")
    (fun () -> ignore (Metrics.histogram m "h" ~buckets:[| 1.; 1. |]))

let test_metrics_snapshot_sorted () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "b");
  ignore (Metrics.counter m "a");
  ignore (Metrics.counter m "c");
  Alcotest.(check (list string)) "sorted by name" [ "a"; "b"; "c" ]
    (List.map fst (Metrics.snapshot m))

(* ------------------------------------------------------------------ *)
(* Span                                                                *)

let test_span_nesting () =
  let s = Span.create () in
  Span.enter s "outer";
  Span.enter s "inner";
  Span.leave s;
  Span.enter s "inner";
  Span.leave s;
  Span.leave s;
  match Span.totals s with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner label" "inner" inner.Span.label;
      Alcotest.(check int) "inner count" 2 inner.Span.count;
      Alcotest.(check string) "outer label" "outer" outer.Span.label;
      Alcotest.(check int) "outer count" 1 outer.Span.count;
      (* Inclusive timing: the outer span contains both inner spans. *)
      Alcotest.(check bool) "outer >= inner" true
        (outer.Span.seconds >= inner.Span.seconds);
      Alcotest.(check bool) "non-negative" true (inner.Span.seconds >= 0.)
  | ts -> Alcotest.failf "expected 2 labels, got %d" (List.length ts)

let test_span_unbalanced_leave () =
  let s = Span.create () in
  Alcotest.check_raises "leave without enter"
    (Invalid_argument "Span.leave: no open span") (fun () -> Span.leave s)

let test_span_time_exception_safe () =
  let s = Span.create () in
  (try Span.time s "work" (fun () -> failwith "boom") with Failure _ -> ());
  (* The span closed despite the exception: totals has it and the stack is
     balanced, so a fresh leave still raises. *)
  (match Span.totals s with
  | [ t ] ->
      Alcotest.(check string) "label" "work" t.Span.label;
      Alcotest.(check int) "count" 1 t.Span.count
  | _ -> Alcotest.fail "span not accumulated");
  Alcotest.check_raises "stack balanced"
    (Invalid_argument "Span.leave: no open span") (fun () -> Span.leave s)

let test_span_reset () =
  let s = Span.create () in
  Span.time s "a" (fun () -> ());
  Span.reset s;
  Alcotest.(check int) "empty after reset" 0 (List.length (Span.totals s))

(* ------------------------------------------------------------------ *)
(* Engine golden: a sink never changes the simulation                  *)

(* Fixed instance + workloads; the stats below were captured from the
   pre-observability engine and pin both "obs disabled" and "obs enabled"
   runs bit-identically. *)
let fixture =
  lazy
    (let rng = Prng.create 42 in
     let points = Adhoc_pointset.Generators.uniform rng 80 in
     let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
     let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points in
     let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:100 in
     let config =
       { Workload.horizon = 600; attempts = 400; slack = 12; interference_free = false }
     in
     let w =
       Workload.flows config ~rng:(Prng.create 5) ~graph:b.Pipeline.overlay
         ~cost:Cost.length ~num_flows:3
     in
     let wq =
       Workload.flows ~conflict:b.Pipeline.conflict
         { config with Workload.interference_free = true }
         ~rng:(Prng.create 6) ~graph:b.Pipeline.overlay ~cost:Cost.length ~num_flows:3
     in
     (b, params, w, wq))

let golden_pad =
  {
    Engine.steps = 800;
    injected = 252;
    dropped = 0;
    delivered = 145;
    sends = 710;
    failed_sends = 0;
    total_cost = 106.59489637196208;
    peak_height = 8;
    remaining = 107;
  }

let golden_plain =
  {
    Engine.steps = 800;
    injected = 399;
    dropped = 0;
    delivered = 364;
    sends = 1093;
    failed_sends = 0;
    total_cost = 156.08249602281123;
    peak_height = 13;
    remaining = 35;
  }

let golden_csma =
  {
    Engine.steps = 800;
    injected = 399;
    dropped = 0;
    delivered = 217;
    sends = 983;
    failed_sends = 0;
    total_cost = 142.52346657104204;
    peak_height = 10;
    remaining = 182;
  }

let check_stats name (expected : Engine.stats) (got : Engine.stats) =
  Alcotest.(check int) (name ^ " steps") expected.Engine.steps got.Engine.steps;
  Alcotest.(check int) (name ^ " injected") expected.Engine.injected got.Engine.injected;
  Alcotest.(check int) (name ^ " dropped") expected.Engine.dropped got.Engine.dropped;
  Alcotest.(check int) (name ^ " delivered") expected.Engine.delivered got.Engine.delivered;
  Alcotest.(check int) (name ^ " sends") expected.Engine.sends got.Engine.sends;
  Alcotest.(check int) (name ^ " failed") expected.Engine.failed_sends got.Engine.failed_sends;
  (* Bit-identical, not approximately equal. *)
  Alcotest.(check bool)
    (name ^ " total_cost bit-identical")
    true
    (Int64.equal
       (Int64.bits_of_float expected.Engine.total_cost)
       (Int64.bits_of_float got.Engine.total_cost));
  Alcotest.(check int) (name ^ " peak") expected.Engine.peak_height got.Engine.peak_height;
  Alcotest.(check int) (name ^ " remaining") expected.Engine.remaining got.Engine.remaining

let run_pad ?obs () =
  let b, params, _, wq = Lazy.force fixture in
  Engine.run_mac_given ~cooldown:200 ?obs ~pad:b.Pipeline.conflict
    ~graph:b.Pipeline.overlay ~cost:Cost.length ~params wq

let run_plain ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  Engine.run_mac_given ~cooldown:200 ?obs ~graph:b.Pipeline.overlay ~cost:Cost.length
    ~params w

let run_csma ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  let mac = Adhoc_mac.Mac.csma ~rng:(Prng.create 7) b.Pipeline.conflict in
  Engine.run_with_mac ~cooldown:200 ?obs ~collisions:b.Pipeline.conflict
    ~graph:b.Pipeline.overlay ~cost:Cost.length ~params ~mac w

let test_golden_disabled () =
  check_stats "pad" golden_pad (run_pad ());
  check_stats "plain" golden_plain (run_plain ());
  check_stats "csma" golden_csma (run_csma ())

(* A sink carrying an event log with a live recorder folding it: the
   per-step series is the recorder's windows. *)
let live_sink ~window =
  let events = Obs.Event.create () in
  let live = Obs.Live.create ~window () in
  Obs.Live.attach live events;
  (Obs.create ~events (), live)

let test_golden_enabled () =
  (* A full sink — metrics, spans, an event log and a window-1 live
     recorder — must not perturb the run: same golden numbers, and one
     window per step from the first event (step 1) to the last (696). *)
  let obs, live = live_sink ~window:1 in
  check_stats "pad+obs" golden_pad (run_pad ~obs ());
  Alcotest.(check int) "one window per step" 696 (Obs.Live.finish live).Obs.Live.windows;
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "decide span" true (List.mem "engine/decide" labels);
  Alcotest.(check bool) "apply span" true (List.mem "engine/apply" labels);
  (match List.assoc_opt "engine.delivered" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter d) -> Alcotest.(check int) "delivered counter" 145 d
  | _ -> Alcotest.fail "engine.delivered counter missing")

let test_golden_enabled_csma () =
  let obs, live = live_sink ~window:10 in
  check_stats "csma+obs" golden_csma (run_csma ~obs ());
  Alcotest.(check int) "window-10 count" 60 (Obs.Live.finish live).Obs.Live.windows;
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "mac span" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "mac/") labels)

let test_live_partitions_stats () =
  (* Window-1 records must partition the run totals, on a given
     activation and on a MAC-arbitrated one: summing the windows
     reproduces the aggregate stats, and the last window's gauge is what
     the run leaves buffered. *)
  List.iter
    (fun (name, run) ->
      let obs, live = live_sink ~window:1 in
      let stats = run obs in
      ignore (Obs.Live.finish live);
      let ws = Obs.Live.windows live in
      let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
      let check what expected got = Alcotest.(check int) (name ^ " " ^ what) expected got in
      check "injected" stats.Engine.injected (sum (fun w -> w.Obs.Live.injected));
      check "delivered" stats.Engine.delivered (sum (fun w -> w.Obs.Live.delivered));
      check "dropped" stats.Engine.dropped (sum (fun w -> w.Obs.Live.dropped));
      check "sends" stats.Engine.sends
        (sum (fun w -> w.Obs.Live.sends + w.Obs.Live.collisions));
      check "failed sends" stats.Engine.failed_sends (sum (fun w -> w.Obs.Live.collisions));
      check "final buffered" stats.Engine.remaining
        (match List.rev ws with w :: _ -> w.Obs.Live.buffered | [] -> 0))
    [ ("plain", fun obs -> run_plain ~obs ()); ("csma", fun obs -> run_csma ~obs ()) ]

(* ------------------------------------------------------------------ *)
(* Span self time                                                      *)

let test_span_self_time () =
  let s = Span.create () in
  Span.enter s "outer";
  Span.enter s "inner";
  (* Busy-wait so the inner span has measurable width. *)
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 1e-4 do
    ()
  done;
  Span.leave s;
  Span.leave s;
  match Span.totals s with
  | [ inner; outer ] ->
      (* A leaf's exclusive time is its inclusive time. *)
      Alcotest.(check bool) "leaf self = seconds" true
        (inner.Span.self_seconds = inner.Span.seconds);
      Alcotest.(check bool) "parent self excludes child" true
        (outer.Span.self_seconds <= outer.Span.seconds -. inner.Span.seconds +. 1e-12);
      Alcotest.(check bool) "self non-negative" true (outer.Span.self_seconds >= 0.)
  | ts -> Alcotest.failf "expected 2 labels, got %d" (List.length ts)

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)

module Event = Obs.Event
module Invariants = Obs.Invariants
module Mirror = Obs.Mirror

let sample_events =
  [
    Event.Inject { step = 0; src = 1; dst = 2; admitted = true };
    Event.Inject { step = 0; src = 3; dst = 3; admitted = false };
    Event.Send
      {
        step = 1;
        edge = 7;
        src = 1;
        dst = 4;
        dest = 2;
        cost = 0.1 +. 0.2 (* not representable: exercises exact round-trip *);
        outcome = Event.Moved;
      };
    Event.Collide { step = 1; edge = 9; src = 4; dst = 5; dest = 2; cost = 1. /. 3. };
    Event.Deliver { step = 2; dst = 2; self = false };
    Event.Epoch_change { step = 3; epoch = 1 };
    Event.Height_advert { step = 3; node = 6 };
    Event.Send
      {
        step = 4;
        edge = 0;
        src = 4;
        dst = 2;
        dest = 2;
        cost = 106.59489637196208;
        outcome = Event.Delivered;
      };
  ]

let test_event_roundtrip () =
  let log = Event.create () in
  List.iter (Event.record log) sample_events;
  Alcotest.(check int) "length" (List.length sample_events) (Event.length log);
  List.iteri
    (fun i ev ->
      if Event.get log i <> ev then Alcotest.failf "event %d decoded differently" i)
    sample_events;
  Alcotest.check_raises "out of bounds" (Invalid_argument "Event.get: index out of bounds")
    (fun () -> ignore (Event.get log 8))

let test_event_growth () =
  (* Twice the room [create] starts with. *)
  let log = Event.create () in
  for i = 0 to 2047 do
    Event.send log ~step:i ~edge:i ~src:0 ~dst:1 ~dest:2 ~cost:(float_of_int i /. 7.)
      ~outcome:(if i mod 2 = 0 then Event.Moved else Event.Delivered)
  done;
  Alcotest.(check int) "grows past capacity" 2048 (Event.length log);
  match Event.get log 2047 with
  | Event.Send { step = 2047; edge = 2047; cost; outcome = Event.Delivered; _ } ->
      Alcotest.(check bool) "cost survives growth" true
        (Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float (2047. /. 7.)))
  | _ -> Alcotest.fail "last event mangled"

let test_event_observer () =
  let log = Event.create () in
  let seen = ref [] and late = ref 0 in
  Event.add_observer log (fun i e -> seen := (i, e) :: !seen);
  List.iter (Event.record log) sample_events;
  Alcotest.(check int) "observer saw every record" (List.length sample_events)
    (List.length !seen);
  List.iteri
    (fun i ev ->
      let j, got = List.nth (List.rev !seen) i in
      Alcotest.(check int) "index" i j;
      if got <> ev then Alcotest.failf "observer got a different event at %d" i)
    sample_events;
  Event.add_observer log (fun _ _ -> incr late);
  Event.deliver log ~step:9 ~dst:0 ~self:true;
  Alcotest.(check int) "a later observer sees only later events" 1 !late;
  Alcotest.(check int) "and the first one still sees them" (List.length sample_events + 1)
    (List.length !seen)

let with_temp_file suffix f =
  let file = Filename.temp_file "events" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_event_jsonl_roundtrip () =
  let log = Event.create () in
  List.iter (Event.record log) sample_events;
  with_temp_file ".jsonl" (fun file ->
      Event.save_jsonl log file;
      let ic = open_in file in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string) "schema header" "{\"schema\":\"adhoc-events/1\"}" header;
      match Event.load_jsonl file with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok events ->
          Alcotest.(check int) "count" (List.length sample_events) (Array.length events);
          List.iteri
            (fun i ev ->
              (* Costs must survive the text round-trip bit-for-bit; the
                 variant comparison covers them since floats are compared
                 structurally and none is nan. *)
              if events.(i) <> ev then Alcotest.failf "event %d changed in flight" i)
            sample_events)

let test_event_jsonl_rejects () =
  let write file lines =
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  with_temp_file ".jsonl" (fun file ->
      write file [ "{\"schema\":\"adhoc-events/2\"}" ];
      (match Event.load_jsonl file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong schema accepted");
      write file
        [ "{\"schema\":\"adhoc-events/1\"}"; "{\"type\":\"send\",\"step\":0}" ];
      (match Event.load_jsonl file with
      | Error msg ->
          Alcotest.(check bool) "error names the line" true (contains msg ":2")
      | Ok _ -> Alcotest.fail "truncated send accepted");
      write file [ "{\"schema\":\"adhoc-events/1\"}"; "not json" ];
      (match Event.load_jsonl file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage line accepted");
      (* The emitters' step contract, which step-keyed readers rely on. *)
      let rejects what lines fragment =
        write file ("{\"schema\":\"adhoc-events/1\"}" :: lines);
        match Event.load_jsonl file with
        | Error msg ->
            Alcotest.(check bool) (Printf.sprintf "%s: %S in %S" what fragment msg) true
              (contains msg fragment)
        | Ok _ -> Alcotest.failf "%s accepted" what
      in
      rejects "decreasing step"
        [ "{\"ev\":\"epoch\",\"step\":3,\"epoch\":0}"; "{\"ev\":\"epoch\",\"step\":1,\"epoch\":1}" ]
        ":3: step 1 after step 3";
      rejects "negative step" [ "{\"ev\":\"epoch\",\"step\":-1,\"epoch\":0}" ] ":2: negative step -1")

(* Other JSON writers space their separators (Python's json.dumps writes
   ", " and ": "): the reader takes any JSON whitespace between tokens. *)
let test_event_jsonl_whitespace () =
  let log = Event.create () in
  List.iter (Event.record log) sample_events;
  with_temp_file ".jsonl" (fun file ->
      Event.save_jsonl log file;
      let spaced =
        In_channel.with_open_bin file In_channel.input_all
        |> String.to_seq
        |> Seq.concat_map (function
             | (',' | ':') as c -> List.to_seq [ c; ' ' ]
             | c -> Seq.return c)
        |> String.of_seq
      in
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc spaced);
      Alcotest.(check bool) "separators spaced" true (contains spaced "{\"schema\": \"adhoc");
      match Event.load_jsonl file with
      | Error msg -> Alcotest.failf "spaced log rejected: %s" msg
      | Ok events ->
          Alcotest.(check int) "count" (List.length sample_events) (Array.length events);
          List.iteri
            (fun i ev -> if events.(i) <> ev then Alcotest.failf "event %d changed" i)
            sample_events)

let test_event_jsonl_one_object () =
  let rejects what lines fragment =
    with_temp_file ".jsonl" (fun file ->
        Out_channel.with_open_bin file (fun oc ->
            List.iter
              (fun l -> Out_channel.output_string oc (l ^ "\n"))
              ("{\"schema\":\"adhoc-events/1\"}" :: lines));
        match Event.load_jsonl file with
        | Error msg ->
            Alcotest.(check bool) (Printf.sprintf "%s: %S in %S" what fragment msg) true
              (contains msg fragment)
        | Ok _ -> Alcotest.failf "%s accepted" what)
  in
  rejects "unclosed object" [ "{\"ev\":\"epoch\",\"step\":3,\"epoch\":0" ] ":2: ";
  rejects "text after the object"
    [ "{\"ev\":\"epoch\",\"step\":3,\"epoch\":0}"; "{\"ev\":\"epoch\",\"step\":4,\"epoch\":1} x" ]
    ":3: ";
  rejects "repeated member name"
    [ "{\"ev\":\"epoch\",\"step\":3,\"epoch\":0,\"step\":1}" ]
    ":2: repeated member name \"step\""

(* Byte flips, digit changes and truncations of a recorded log: the loader
   either rejects the file or hands every reader a log it can fold. *)
let fuzz_base_log =
  lazy
    (let rng = Prng.create 3 in
     let points = Adhoc_pointset.Generators.uniform rng 48 in
     let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
     let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points in
     let events = Event.create () in
     ignore
       (Pipeline.run_scenario1 ~obs:(Obs.create ~events ()) ~horizon:150 ~attempts:300
          ~flows:2 ~rng b);
     with_temp_file ".jsonl" (fun file ->
         Event.save_jsonl events file;
         In_channel.with_open_bin file In_channel.input_all))

let test_event_log_fuzz =
  qtest "mutated event logs never crash the readers" ~count:300 seed_gen (fun seed ->
      let doc = Lazy.force fuzz_base_log in
      let rng = Prng.create seed in
      let mutated =
        match Prng.int rng 3 with
        | 0 -> String.sub doc 0 (Prng.int rng (String.length doc))
        | 1 ->
            let b = Bytes.of_string doc in
            Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (32 + Prng.int rng 90));
            Bytes.to_string b
        | _ ->
            (* A digit for a digit: steps, nodes and edges stay numbers. *)
            let b = Bytes.of_string doc in
            let rec pick () =
              let i = Prng.int rng (Bytes.length b) in
              match Bytes.get b i with '0' .. '9' -> i | _ -> pick ()
            in
            Bytes.set b (pick ()) (Char.chr (48 + Prng.int rng 10));
            Bytes.to_string b
      in
      with_temp_file ".jsonl" (fun file ->
          Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc mutated);
          match Event.load_jsonl file with
          | Error _ -> true
          | Ok events ->
              ignore (Journey.analyze events);
              ignore (Invariants.run events);
              let live = Obs.Live.create ~window:10 () in
              Obs.Live.feed_array live events;
              ignore (Obs.Live.finish live);
              true))

(* ------------------------------------------------------------------ *)
(* Invariants: seeded corrupt logs must be caught                      *)

let clean_events =
  [
    Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
    Event.Send
      { step = 1; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Moved };
    Event.Send
      {
        step = 2;
        edge = 1;
        src = 1;
        dst = 2;
        dest = 2;
        cost = 0.5;
        outcome = Event.Delivered;
      };
    Event.Deliver { step = 2; dst = 2; self = false };
  ]

let violations_of events = Invariants.run (Array.of_list events)

let expect_violation name events fragment =
  match violations_of events with
  | [] -> Alcotest.failf "%s: corrupt log passed" name
  | v :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reason mentions %S (got %S)" name fragment
           v.Invariants.reason)
        true
        (contains v.Invariants.reason fragment)

let test_invariants_clean () =
  Alcotest.(check int) "clean log has no violations" 0
    (List.length (violations_of clean_events))

let test_invariants_monotone () =
  expect_violation "step regression"
    (clean_events
    @ [ Event.Inject { step = 0; src = 0; dst = 1; admitted = true } ])
    "non-monotone"

let test_invariants_empty_buffer () =
  expect_violation "send with nothing buffered"
    [
      Event.Send
        { step = 0; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Moved };
    ]
    "buffer is empty"

(* An engine collides only a packet it holds, so a collision from an
   empty cell is a corrupt log even though a collision moves nothing. *)
let test_invariants_empty_collide () =
  expect_violation "collision with nothing buffered"
    [
      Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
      Event.Collide { step = 1; edge = 0; src = 0; dst = 1; dest = 1; cost = 1. };
    ]
    "buffer is empty"

let test_invariants_delivered_wrong_node () =
  expect_violation "delivered away from the destination"
    [
      Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
      Event.Send
        {
          step = 1;
          edge = 0;
          src = 0;
          dst = 1;
          dest = 2;
          cost = 1.;
          outcome = Event.Delivered;
        };
    ]
    "not the destination"

let test_invariants_moved_at_destination () =
  expect_violation "moved into the destination without delivering"
    [
      Event.Inject { step = 0; src = 0; dst = 1; admitted = true };
      Event.Send
        { step = 1; edge = 0; src = 0; dst = 1; dest = 1; cost = 1.; outcome = Event.Moved };
    ]
    "should deliver"

let test_invariants_spurious_deliver () =
  expect_violation "Deliver from nowhere"
    [ Event.Deliver { step = 0; dst = 1; self = false } ]
    "no delivering send"

let test_invariants_missing_deliver () =
  (* Two delivering events with no Deliver between them: the second opens
     while the first is still owed. *)
  expect_violation "missing Deliver"
    [
      Event.Inject { step = 0; src = 1; dst = 1; admitted = true };
      Event.Inject { step = 0; src = 2; dst = 2; admitted = true };
    ]
    "still lacks"

let test_invariants_endpoints () =
  let c = Invariants.create ~endpoints:(fun _ -> (5, 6)) () in
  List.iteri (fun i e -> Invariants.check c i e) clean_events;
  Alcotest.(check bool) "mismatched endpoints flagged" false (Invariants.ok c)

let test_invariants_edge_active () =
  let c = Invariants.create ~is_active:(fun ~step:_ ~edge -> edge <> 1) () in
  List.iteri (fun i e -> Invariants.check c i e) clean_events;
  (match Invariants.violations c with
  | [ v ] ->
      Alcotest.(check bool) "names the inactive edge" true
        (contains v.Invariants.reason "edge 1")
  | vs -> Alcotest.failf "expected exactly 1 violation, got %d" (List.length vs));
  let ok = Invariants.create ~is_active:(fun ~step:_ ~edge:_ -> true) () in
  List.iteri (fun i e -> Invariants.check ok i e) clean_events;
  Alcotest.(check bool) "always-active passes" true (Invariants.ok ok)

let test_invariants_final_check () =
  let feed () =
    let c = Invariants.create () in
    List.iteri (fun i e -> Invariants.check c i e) clean_events;
    c
  in
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:1 ~sends:2 ~failed_sends:0
    ~total_cost:1.5 ~remaining:0;
  Alcotest.(check bool) "faithful stats reconcile" true (Invariants.ok c);
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:2 ~sends:2 ~failed_sends:0
    ~total_cost:1.5 ~remaining:0;
  Alcotest.(check bool) "delivered mismatch caught" false (Invariants.ok c);
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:1 ~sends:2 ~failed_sends:0
    ~total_cost:(1.5 +. 1e-12) ~remaining:0;
  Alcotest.(check bool) "energy compared bit-for-bit" false (Invariants.ok c)

(* Anycast keys a packet for group g as n + g and absorbs it at any
   member, so the checker takes the run's absorption rule: on the line
   0-1-2-3-4 with group {0, 4}, an injection at member 0 is absorbed at
   once and the other two packets are delivered one hop away. *)
let group_line = Graph.of_edges ~n:5 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.) ]
let group_members = [| [| 0; 4 |] |]

let group_absorbs ~node ~dest = dest >= 5 && Array.mem node group_members.(dest - 5)

let run_group_line log =
  Engine.run ~obs:(Obs.create ~events:log ()) ~who:"test"
    ~params:(Balancing.params ~threshold:0. ~gamma:0. ~capacity:10)
    ~heights:Engine.Live
    ~absorb:(Engine.Group { members = group_members; absorbed = Array.make 5 0 })
    ~injections:(fun t -> if t = 0 then [ (1, 0); (3, 0); (0, 0) ] else [])
    [
      {
        Engine.graph = group_line;
        cost = Cost.length;
        activation = Engine.Rounds None;
        steps = 25;
        epoch = None;
      };
    ]

let test_invariants_group_run () =
  let log = Event.create () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints group_line) ~absorbs:group_absorbs () in
  Invariants.attach checker log;
  let s = run_group_line log in
  Alcotest.(check int) "all three delivered" 3 s.Engine.delivered;
  Invariants.final_check checker ~injected:s.Engine.injected ~dropped:s.Engine.dropped
    ~delivered:s.Engine.delivered ~sends:s.Engine.sends ~failed_sends:s.Engine.failed_sends
    ~total_cost:s.Engine.total_cost ~remaining:s.Engine.remaining;
  Alcotest.(check string) "group run" "invariants ok (8 events checked)"
    (Invariants.report checker)

let test_invariants_group_non_member () =
  let log =
    [|
      Event.Inject { step = 0; src = 1; dst = 5; admitted = true };
      Event.Send
        { step = 1; edge = 1; src = 1; dst = 2; dest = 5; cost = 1.; outcome = Event.Delivered };
      Event.Deliver { step = 1; dst = 5; self = false };
    |]
  in
  match Invariants.run ~absorbs:group_absorbs log with
  | [ v ] ->
      Alcotest.(check bool)
        (Printf.sprintf "names the non-member (got %S)" v.Invariants.reason)
        true
        (contains v.Invariants.reason "dst 2 is not the destination 5")
  | vs -> Alcotest.failf "expected exactly 1 violation, got %d" (List.length vs)

let test_invariants_cap () =
  let log =
    List.init 200 (fun i -> Event.Deliver { step = i; dst = 0; self = false })
  in
  let c = Invariants.create () in
  List.iteri (fun i e -> Invariants.check c i e) log;
  Alcotest.(check int) "every violation counted" 200 (Invariants.violation_count c);
  Alcotest.(check int) "kept list capped" Invariants.max_kept
    (List.length (Invariants.violations c))

(* ------------------------------------------------------------------ *)
(* Engine event emission: golden runs with an event log attached       *)

let count p events = Array.fold_left (fun acc e -> if p e then acc + 1 else acc) 0 events

let is_send = function Event.Send _ -> true | _ -> false
let is_collide = function Event.Collide _ -> true | _ -> false
let is_deliver = function Event.Deliver _ -> true | _ -> false

let checked_run name golden run =
  let b, _, _, _ = Lazy.force fixture in
  let log = Event.create () in
  let obs = Obs.create ~events:log () in
  let checker =
    Invariants.create ~endpoints:(Graph.endpoints b.Pipeline.overlay) ()
  in
  Invariants.attach checker log;
  let stats = run ?obs:(Some obs) () in
  check_stats (name ^ "+events") golden stats;
  Invariants.final_check checker ~injected:stats.Engine.injected
    ~dropped:stats.Engine.dropped ~delivered:stats.Engine.delivered
    ~sends:stats.Engine.sends ~failed_sends:stats.Engine.failed_sends
    ~total_cost:stats.Engine.total_cost ~remaining:stats.Engine.remaining;
  if not (Invariants.ok checker) then
    Alcotest.failf "%s: %s" name (Invariants.report checker);
  let events = Event.to_array log in
  Alcotest.(check int)
    (name ^ " one Deliver per delivery")
    stats.Engine.delivered (count is_deliver events);
  Alcotest.(check int)
    (name ^ " one Send per successful attempt")
    (stats.Engine.sends - stats.Engine.failed_sends)
    (count is_send events);
  Alcotest.(check int)
    (name ^ " one Collide per failed attempt")
    stats.Engine.failed_sends (count is_collide events);
  events

let test_events_golden_pad () = ignore (checked_run "pad" golden_pad run_pad)
let test_events_golden_plain () = ignore (checked_run "plain" golden_plain run_plain)
let test_events_golden_csma () = ignore (checked_run "csma" golden_csma run_csma)

let test_events_collisions_checked () =
  (* The grant-everything MAC with a collision structure forces
     interfering grants to collide, exercising the Collide emission and
     its invariants. *)
  let b, params, w, _ = Lazy.force fixture in
  let log = Event.create () in
  let obs = Obs.create ~events:log () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints b.Pipeline.overlay) () in
  Invariants.attach checker log;
  let stats =
    Engine.run_with_mac ~cooldown:200 ~obs ~collisions:b.Pipeline.conflict
      ~graph:b.Pipeline.overlay ~cost:Cost.length ~params ~mac:Reference_mac.Array_mac.all w
  in
  Alcotest.(check bool) "collisions actually happened" true (stats.Engine.failed_sends > 0);
  Invariants.final_check checker ~injected:stats.Engine.injected
    ~dropped:stats.Engine.dropped ~delivered:stats.Engine.delivered
    ~sends:stats.Engine.sends ~failed_sends:stats.Engine.failed_sends
    ~total_cost:stats.Engine.total_cost ~remaining:stats.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  Alcotest.(check int) "collide events" stats.Engine.failed_sends
    (count is_collide (Event.to_array log))

(* ------------------------------------------------------------------ *)
(* Journey: offline replay reproduces an online FIFO mirror exactly    *)

let bits = Int64.bits_of_float

(* Journey's per-packet statistics against the mirror's, bit for bit,
   and its totals against the run's own stats. *)
let check_journey_matches name (stats : Engine.stats) (r : Reference_tracking.stats)
    (j : Journey.t) =
  let same field a b =
    if not (Int64.equal (bits a) (bits b)) then
      Alcotest.failf "%s %s: reference %.17g, journey %.17g" name field a b
  in
  same "latency mean" r.Reference_tracking.latency_mean j.Journey.latency_mean;
  same "latency median" r.Reference_tracking.latency_median j.Journey.latency_median;
  same "latency p95" r.Reference_tracking.latency_p95 j.Journey.latency_p95;
  same "hops mean" r.Reference_tracking.hops_mean j.Journey.hops_mean;
  same "energy per delivered" r.Reference_tracking.energy_per_delivered
    j.Journey.energy_per_delivered;
  let t = j.Journey.totals in
  same "total energy" stats.Engine.total_cost t.Mirror.energy;
  Alcotest.(check int) (name ^ " delivered") stats.Engine.delivered t.Mirror.delivered;
  Alcotest.(check int) (name ^ " injected") stats.Engine.injected t.Mirror.injected;
  Alcotest.(check int) (name ^ " dropped") stats.Engine.dropped t.Mirror.dropped;
  Alcotest.(check int) (name ^ " anomalies") 0 t.Mirror.anomalies;
  Alcotest.(check int)
    (name ^ " packet count")
    (List.length r.Reference_tracking.packets)
    (List.length j.Journey.packets)

(* The golden padded run, with its event log and the mirror that
   followed it online. *)
let tracked_with_events () =
  let b, _, _, _ = Lazy.force fixture in
  let log = Event.create () in
  let mirror = Reference_tracking.attach ~graph:b.Pipeline.overlay ~cost:Cost.length log in
  let stats = run_pad ~obs:(Obs.create ~events:log ()) () in
  (stats, Reference_tracking.stats mirror, log)

let test_journey_matches_tracked () =
  let stats, r, log = tracked_with_events () in
  check_journey_matches "golden" stats r (Journey.analyze (Event.to_array log))

let test_journey_survives_jsonl () =
  (* The analytics must be reproducible from the file, not just the
     in-memory log — %.17g costs make the round trip exact. *)
  let stats, r, log = tracked_with_events () in
  with_temp_file ".jsonl" (fun file ->
      Event.save_jsonl log file;
      match Event.load_jsonl file with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok events -> check_journey_matches "jsonl" stats r (Journey.analyze events))

let test_journey_matches_tracked_random =
  qtest "journey replay = tracked engine on random workloads" ~count:15 seed_gen
    (fun seed ->
      let points = points_of_seed ~min_n:6 ~max_n:25 seed in
      let range = 2. *. Adhoc_topo.Udg.critical_range points in
      let g =
        Adhoc_topo.Theta_alg.overlay
          (Adhoc_topo.Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)
      in
      let config =
        { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }
      in
      let w =
        Workload.flows config ~rng:(Prng.create seed) ~graph:g ~cost:Cost.length
          ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let log = Event.create () in
      let mirror = Reference_tracking.attach ~graph:g ~cost:Cost.length log in
      let stats =
        Engine.run_mac_given ~cooldown:150 ~obs:(Obs.create ~events:log ()) ~graph:g
          ~cost:Cost.length ~params w
      in
      let r = Reference_tracking.stats mirror in
      let j = Journey.analyze (Event.to_array log) in
      Int64.equal (bits r.Reference_tracking.latency_mean) (bits j.Journey.latency_mean)
      && Int64.equal (bits r.Reference_tracking.latency_median) (bits j.Journey.latency_median)
      && Int64.equal (bits r.Reference_tracking.latency_p95) (bits j.Journey.latency_p95)
      && Int64.equal (bits r.Reference_tracking.hops_mean) (bits j.Journey.hops_mean)
      && Int64.equal
           (bits r.Reference_tracking.energy_per_delivered)
           (bits j.Journey.energy_per_delivered)
      && Int64.equal (bits stats.Engine.total_cost) (bits j.Journey.totals.Mirror.energy)
      && j.Journey.totals.Mirror.anomalies = 0)

let test_journey_flags_corrupt_log () =
  let j =
    Journey.analyze
      [|
        Event.Send
          {
            step = 0;
            edge = 0;
            src = 0;
            dst = 1;
            dest = 2;
            cost = 1.;
            outcome = Event.Moved;
          };
      |]
  in
  Alcotest.(check bool) "uninjected send is an anomaly" true
    (j.Journey.totals.Mirror.anomalies > 0)

let test_journey_edge_table () =
  let stats, _, log = tracked_with_events () in
  let j = Journey.analyze (Event.to_array log) in
  let edge_sends =
    Array.fold_left (fun a (e : Journey.edge_use) -> a + e.Journey.sends) 0 j.Journey.edges
  in
  Alcotest.(check int) "per-edge sends partition the total" stats.Engine.sends edge_sends;
  Array.iter
    (fun (e : Journey.edge_use) ->
      let u, v = Graph.endpoints (let b, _, _, _ = Lazy.force fixture in b.Pipeline.overlay) e.Journey.edge in
      if not ((u, v) = (e.Journey.u, e.Journey.v) || (v, u) = (e.Journey.u, e.Journey.v))
      then Alcotest.failf "edge %d endpoints wrong" e.Journey.edge;
      if Journey.mean_wait e < 0. then Alcotest.fail "negative head-of-line wait")
    j.Journey.edges;
  match j.Journey.timeline with
  | [||] -> Alcotest.fail "no timeline"
  | tl ->
      let _, final_delivered, _ = tl.(Array.length tl - 1) in
      Alcotest.(check int) "timeline converges to the delivery total" stats.Engine.delivered
        final_delivered

(* The group line's run through both folds: the log says which packet
   was absorbed where it was injected (its Deliver with self = true), so
   neither fold needs the group's rule to count three deliveries, one of
   them a self-delivery. *)
let test_journey_group_line () =
  let log = Event.create () in
  let live = Obs.Live.create ~window:10 () in
  Obs.Live.attach live log;
  let s = run_group_line log in
  Alcotest.(check int) "engine delivered" 3 s.Engine.delivered;
  let read name (c : Mirror.counters) =
    Alcotest.(check (list int))
      (name ^ ": delivered, self, buffered, anomalies")
      [ 3; 1; 0; 0 ]
      [ c.delivered; c.self_deliveries; c.buffered; c.anomalies ]
  in
  read "journey" (Journey.analyze (Event.to_array log)).Journey.totals;
  read "live" (Obs.Live.finish live).Obs.Live.totals

(* Random Group runs, some injections at members: both folds count what
   the engine did, each injection at a member is a self-delivery, and the
   checker under the group's rule finds nothing. *)
let test_journey_group_random =
  qtest "group runs: journey = live = engine" ~count:15 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let n = Graph.n g in
      let members = [| [| 0 |]; [| 1; 2 |] |] in
      let rng = Prng.create seed in
      let at_members = ref 0 in
      let injections t =
        if t < 100 then begin
          let v = Prng.int rng n and grp = Prng.int rng 2 in
          if Array.mem v members.(grp) then incr at_members;
          [ (v, grp) ]
        end
        else []
      in
      let log = Event.create () in
      let live = Obs.Live.create ~window:50 () in
      Obs.Live.attach live log;
      let s =
        Engine.run ~obs:(Obs.create ~events:log ()) ~who:"test"
          ~params:(Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:30)
          ~heights:Engine.Live
          ~absorb:(Engine.Group { members; absorbed = Array.make n 0 })
          ~injections
          [
            {
              Engine.graph = g;
              cost = Cost.length;
              activation = Engine.Rounds (Some c);
              steps = 400;
              epoch = None;
            };
          ]
      in
      let events = Event.to_array log in
      let t = (Journey.analyze events).Journey.totals in
      let absorbs ~node ~dest = dest >= n && Array.mem node members.(dest - n) in
      t.injected = s.Engine.injected
      && t.dropped = s.Engine.dropped
      && t.delivered = s.Engine.delivered
      && t.sends + t.collisions = s.Engine.sends
      && t.collisions = s.Engine.failed_sends
      && t.buffered = s.Engine.remaining
      && Int64.equal (bits t.energy) (bits s.Engine.total_cost)
      && t.self_deliveries = !at_members
      && t.anomalies = 0
      && Invariants.run ~endpoints:(Graph.endpoints g) ~absorbs events = []
      && (Obs.Live.finish live).Obs.Live.totals = t)

(* A delivery the destination rule forbids (at node 1, for a packet keyed
   2) is the checker's to flag, under that rule; the mirror takes the
   log's word for it. *)
let test_journey_delivered_away () =
  let events =
    [|
      Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
      Event.Send
        { step = 1; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Delivered };
      Event.Deliver { step = 1; dst = 2; self = false };
    |]
  in
  (match Invariants.run events with
  | [ v ] ->
      Alcotest.(check bool)
        (Printf.sprintf "checker names the destination (got %S)" v.Invariants.reason)
        true
        (contains v.Invariants.reason "dst 1 is not the destination 2")
  | vs -> Alcotest.failf "expected exactly 1 violation, got %d" (List.length vs));
  let t = (Journey.analyze events).Journey.totals in
  Alcotest.(check int) "delivered" 1 t.Mirror.delivered;
  Alcotest.(check int) "not a journey anomaly" 0 t.Mirror.anomalies

(* ------------------------------------------------------------------ *)
(* Engine variants: obs parity                                         *)

let small_instance seed =
  let points = points_of_seed ~min_n:8 ~max_n:20 seed in
  let range = 2. *. Adhoc_topo.Udg.critical_range points in
  let g =
    Adhoc_topo.Theta_alg.overlay
      (Adhoc_topo.Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)
  in
  let c =
    Adhoc_interference.Conflict.build (Adhoc_interference.Model.make ~delta:0.5) ~points g
  in
  (g, c)

let test_dynamic_obs_parity () =
  let g, c = small_instance 11 in
  let n = Graph.n g in
  let rng = Prng.create 11 in
  let flow = (Prng.int rng n, Prng.int rng n) in
  let injections t = if t < 200 && t mod 3 = 0 then [ flow ] else [] in
  let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
  let run ?obs () = run_epochs ?obs ~params ~injections [ (g, c, 150); (g, c, 250) ] in
  let plain = run () in
  let log = Event.create () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints g) () in
  Invariants.attach checker log;
  let obs = Obs.create ~events:log () in
  let with_obs = run ~obs () in
  check_stats "dynamic obs parity" plain with_obs;
  Invariants.final_check checker ~injected:with_obs.Engine.injected
    ~dropped:with_obs.Engine.dropped ~delivered:with_obs.Engine.delivered
    ~sends:with_obs.Engine.sends ~failed_sends:with_obs.Engine.failed_sends
    ~total_cost:with_obs.Engine.total_cost ~remaining:with_obs.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  let events = Event.to_array log in
  Alcotest.(check int) "one Epoch_change per epoch" 2
    (count (function Event.Epoch_change _ -> true | _ -> false) events);
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "decide span" true (List.mem "engine/decide" labels);
  match List.assoc_opt "engine.delivered" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter d) ->
      Alcotest.(check int) "delivered counter" with_obs.Engine.delivered d
  | _ -> Alcotest.fail "engine.delivered counter missing"

let test_quantized_obs_parity () =
  let g, c = small_instance 13 in
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = true }
  in
  let w =
    Workload.flows ~conflict:c config ~rng:(Prng.create 13) ~graph:g ~cost:Cost.length
      ~num_flows:2
  in
  let params = Balancing.params ~threshold:2. ~gamma:0.1 ~capacity:50 in
  let run ?obs () = run_advertised ~cooldown:100 ?obs ~pad:c ~quantum:2 ~graph:g ~params w in
  let plain, plain_adverts = run () in
  let log = Event.create () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints g) () in
  Invariants.attach checker log;
  let obs = Obs.create ~events:log () in
  let s, adverts = run ~obs () in
  check_stats "quantized obs parity" plain s;
  Alcotest.(check int) "control messages unchanged" plain_adverts adverts;
  Invariants.final_check checker ~injected:s.Engine.injected ~dropped:s.Engine.dropped
    ~delivered:s.Engine.delivered ~sends:s.Engine.sends
    ~failed_sends:s.Engine.failed_sends ~total_cost:s.Engine.total_cost
    ~remaining:s.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  Alcotest.(check int) "one Height_advert per control message" adverts
    (count (function Event.Height_advert _ -> true | _ -> false) (Event.to_array log));
  (match List.assoc_opt "engine.height_adverts" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter cm) -> Alcotest.(check int) "control counter matches stats" adverts cm
  | _ -> Alcotest.fail "engine.height_adverts counter missing");
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "advertise span" true (List.mem "engine/advertise" labels)

(* [engine.height_adverts] counts each run's own broadcasts, however many
   the caller's [adverts] already held, and only advertised runs record
   it. *)
let test_height_adverts_counter () =
  let g, c = small_instance 13 in
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = true }
  in
  let w =
    Workload.flows ~conflict:c config ~rng:(Prng.create 13) ~graph:g ~cost:Cost.length
      ~num_flows:2
  in
  let params = Balancing.params ~threshold:2. ~gamma:0.1 ~capacity:50 in
  let obs = Obs.create () in
  let counter () = List.assoc_opt "engine.height_adverts" (Metrics.snapshot obs.Obs.metrics) in
  ignore (Engine.run_mac_given ~obs ~pad:c ~graph:g ~cost:Cost.length ~params w);
  Alcotest.(check bool) "no counter after a live run" true (counter () = None);
  let adverts = ref 0 in
  let run () =
    Engine.run ~obs ~who:"test" ~params ~heights:(Engine.Advertised { quantum = 2; adverts })
      ~absorb:Engine.Destination
      ~injections:(fun t -> if t < 300 then w.Workload.injections.(t) else [])
      [
        {
          Engine.graph = g;
          cost = Cost.length;
          activation = Engine.Given (w, Some c);
          steps = 400;
          epoch = None;
        };
      ]
  in
  ignore (run ());
  let first = !adverts in
  if first = 0 then Alcotest.fail "no broadcast to count";
  ignore (run ());
  Alcotest.(check int) "the same run twice" (2 * first) !adverts;
  match counter () with
  | Some (Metrics.Counter k) -> Alcotest.(check int) "two runs' broadcasts" (2 * first) k
  | _ -> Alcotest.fail "engine.height_adverts counter missing"

(* ------------------------------------------------------------------ *)
(* Domprof: per-domain timelines, pool integration, chrome export      *)

module Domprof = Obs.Domprof
module Chrome_trace = Obs.Chrome_trace
module Pool = Adhoc_util.Pool

let test_domprof_merge_order () =
  (* Record out of slot order; [entries] must come back slot-major, each
     lane in append (closing) order — the deterministic merge. *)
  let dp = Domprof.create ~slots:4 () in
  Domprof.begin_chunk dp ~label:"k" ~slot:2 ~lo:20 ~hi:30;
  Domprof.end_chunk dp ~slot:2;
  Domprof.begin_chunk dp ~label:"k" ~slot:1 ~lo:10 ~hi:20;
  Domprof.end_chunk dp ~slot:1;
  Domprof.begin_region dp ~label:"k" ~items:30;
  Domprof.end_region dp;
  Alcotest.(check int) "three closed entries" 3 (Domprof.length dp);
  let es = Domprof.entries dp in
  Alcotest.(check (list int)) "slot-major order" [ 0; 1; 2 ]
    (Array.to_list (Array.map (fun e -> e.Domprof.slot) es));
  (match es.(0).Domprof.kind with
  | Domprof.Region -> ()
  | _ -> Alcotest.fail "slot-0 entry should be the region");
  Alcotest.(check int) "region covers the items" 30 es.(0).Domprof.hi;
  Alcotest.(check int) "slot-1 chunk lo" 10 es.(1).Domprof.lo;
  Alcotest.(check int) "slot-2 chunk hi" 30 es.(2).Domprof.hi;
  Domprof.reset dp;
  Alcotest.(check int) "reset drops entries" 0 (Domprof.length dp)

let test_domprof_nesting_order () =
  let dp = Domprof.create () in
  Domprof.begin_scope dp ~label:"outer";
  Domprof.begin_scope dp ~label:"inner";
  Domprof.end_scope dp;
  Domprof.end_scope dp;
  let es = Domprof.entries dp in
  Alcotest.(check (list string))
    "children close before parents" [ "inner"; "outer" ]
    (Array.to_list (Array.map (fun e -> e.Domprof.label) es));
  Array.iter
    (fun e -> Alcotest.(check bool) "t1 >= t0" true (e.Domprof.t1 >= e.Domprof.t0))
    es

let test_domprof_unbalanced () =
  let dp = Domprof.create ~slots:2 () in
  Alcotest.(check bool) "end without begin raises" true
    (try
       Domprof.end_scope dp;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "slot out of range raises" true
    (try
       Domprof.begin_chunk dp ~label:"x" ~slot:5 ~lo:0 ~hi:1;
       false
     with Invalid_argument _ -> true);
  (* An open (unclosed) mark is not merged. *)
  Domprof.begin_scope dp ~label:"open";
  Alcotest.(check int) "open mark not counted" 0 (Domprof.length dp);
  Alcotest.(check int) "open mark not merged" 0 (Array.length (Domprof.entries dp))

let test_domprof_growth () =
  (* Push one lane far past its initial capacity; nothing is dropped and
     append order survives the reallocation. *)
  let dp = Domprof.create ~slots:1 () in
  let n = 300 in
  for i = 0 to n - 1 do
    Domprof.begin_scope dp ~label:(string_of_int i);
    Domprof.end_scope dp
  done;
  Alcotest.(check int) "grows past initial capacity" n (Domprof.length dp);
  let es = Domprof.entries dp in
  Alcotest.(check string) "first kept" "0" es.(0).Domprof.label;
  Alcotest.(check string) "last kept" (string_of_int (n - 1)) es.(n - 1).Domprof.label

let test_span_domprof_scopes () =
  (* A span profiler created with a recorder mirrors every instance as a
     Scope entry on lane 0. *)
  let dp = Domprof.create () in
  let s = Span.create ~domprof:dp () in
  Span.time s "outer" (fun () -> Span.time s "inner" (fun () -> ()));
  let es = Domprof.entries dp in
  Alcotest.(check (list string))
    "one Scope per span instance, closing order" [ "inner"; "outer" ]
    (Array.to_list (Array.map (fun e -> e.Domprof.label) es));
  Array.iter
    (fun e ->
      match e.Domprof.kind with
      | Domprof.Scope -> ()
      | _ -> Alcotest.fail "span instances record as Scope")
    es

let test_domprof_pool_timeline () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let dp = Domprof.create ~slots:(Pool.jobs pool) () in
      let sink = Obs.create ~domprof:dp () in
      Obs.attach_pool sink pool;
      let n = 300 in
      let a = Array.make n 0 in
      Pool.parallel_for pool ~label:"fill" n (fun i -> a.(i) <- i + 1);
      Obs.detach_pool pool;
      Alcotest.(check int) "work actually ran" n
        (Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 a);
      let es = Array.to_list (Domprof.entries dp) in
      let regions = List.filter (fun e -> e.Domprof.kind = Domprof.Region) es in
      let chunks = List.filter (fun e -> e.Domprof.kind = Domprof.Chunk) es in
      Alcotest.(check int) "one region" 1 (List.length regions);
      Alcotest.(check int) "one chunk per slot" 3 (List.length chunks);
      (* Chunk boundaries are a function of (n, k) only: [i*n/k, (i+1)*n/k). *)
      let expect = List.init 3 (fun i -> (i, i * n / 3, (i + 1) * n / 3)) in
      let got =
        List.sort compare
          (List.map (fun e -> (e.Domprof.slot, e.Domprof.lo, e.Domprof.hi)) chunks)
      in
      Alcotest.(check bool) "deterministic chunk ranges" true (got = expect);
      match Domprof.summary dp with
      | None -> Alcotest.fail "summary missing after a parallel region"
      | Some s ->
          Alcotest.(check int) "chunks counted" 3 s.Domprof.chunks;
          Alcotest.(check int) "chunk items cover the range" n s.Domprof.chunk_items;
          Alcotest.(check bool) "imbalance >= 1" true (s.Domprof.imbalance >= 1.0);
          Alcotest.(check bool) "busy_max >= busy_min" true
            (s.Domprof.busy_max >= s.Domprof.busy_min))

let test_domprof_jobs1_timeline () =
  (* The sequential fast path still reports its single slot-0 chunk, so a
     --jobs 1 run produces a usable timeline. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let dp = Domprof.create () in
      let sink = Obs.create ~domprof:dp () in
      Obs.attach_pool sink pool;
      Pool.parallel_for pool ~label:"seq" 10 (fun _ -> ());
      Obs.detach_pool pool;
      let es = Array.to_list (Domprof.entries dp) in
      let chunks = List.filter (fun e -> e.Domprof.kind = Domprof.Chunk) es in
      match chunks with
      | [ c ] ->
          Alcotest.(check int) "slot 0" 0 c.Domprof.slot;
          Alcotest.(check int) "lo" 0 c.Domprof.lo;
          Alcotest.(check int) "hi" 10 c.Domprof.hi
      | _ -> Alcotest.fail "expected exactly one chunk on the k=1 path")

(* A jobs-1 pool runs unhooked regions inline, with no lock.  Hooks
   attached after such a region, including one that raised, must still
   see every later region whole: its region pair and its slot-0 chunk. *)
let test_domprof_jobs1_after_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let a = Array.make 10 0 in
      Pool.parallel_for pool ~label:"inline" 10 (fun i -> a.(i) <- i);
      (try Pool.parallel_for pool ~label:"inline" 10 (fun _ -> failwith "boom")
       with Failure _ -> ());
      let dp = Domprof.create () in
      let sink = Obs.create ~domprof:dp () in
      Obs.attach_pool sink pool;
      Pool.parallel_for pool ~label:"hooked" 10 (fun i -> a.(i) <- a.(i) + 1);
      Obs.detach_pool pool;
      Alcotest.(check int) "both regions ran" 55 (Array.fold_left ( + ) 0 a);
      let es = Array.to_list (Domprof.entries dp) in
      let kinds k = List.filter (fun e -> e.Domprof.kind = k) es in
      (match kinds Domprof.Region with
      | [ r ] ->
          Alcotest.(check string) "region label" "hooked" r.Domprof.label;
          Alcotest.(check int) "region items" 10 r.Domprof.hi
      | _ -> Alcotest.fail "expected exactly the hooked region");
      match kinds Domprof.Chunk with
      | [ c ] ->
          Alcotest.(check int) "slot 0" 0 c.Domprof.slot;
          Alcotest.(check (pair int int)) "whole range" (0, 10) (c.Domprof.lo, c.Domprof.hi)
      | _ -> Alcotest.fail "expected exactly one chunk")

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                        *)

let test_span_gc_delta () =
  let s = Span.create ~gc:true () in
  Span.time s "alloc" (fun () ->
      let acc = ref [] in
      for i = 0 to 9_999 do
        acc := (i, float_of_int i) :: !acc
      done;
      ignore (List.length !acc));
  match Span.totals s with
  | [ t ] ->
      Alcotest.(check bool) "minor words counted" true (t.Span.minor_words > 0.);
      Alcotest.(check bool) "promoted words non-negative" true (t.Span.promoted_words >= 0.);
      Alcotest.(check bool) "collection counts non-negative" true
        (t.Span.minor_collections >= 0 && t.Span.major_collections >= 0)
  | _ -> Alcotest.fail "one span expected"

let test_span_gc_disabled_zero () =
  (* Without [~gc:true] the profiler never reads the GC — totals stay zero
     even when the body allocates. *)
  let s = Span.create () in
  Span.time s "alloc" (fun () -> ignore (List.init 1_000 (fun i -> (i, i))));
  match Span.totals s with
  | [ t ] ->
      check_close "minor words zero when gc off" 0. t.Span.minor_words;
      Alcotest.(check int) "collections zero when gc off" 0 t.Span.minor_collections
  | _ -> Alcotest.fail "one span expected"

let test_pool_gc_counters () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let sink = Obs.create () in
      Obs.attach_pool sink pool;
      Pool.parallel_for pool ~label:"alloc" 64 (fun _ -> ignore (Array.make 256 0.));
      Obs.detach_pool pool;
      let snap = Metrics.snapshot sink.Obs.metrics in
      let counter name =
        match List.assoc_opt name snap with
        | Some (Metrics.Counter c) -> c
        | _ -> Alcotest.failf "%s counter missing" name
      in
      Alcotest.(check int) "one region" 1 (counter "pool.regions");
      Alcotest.(check int) "items" 64 (counter "pool.items");
      (* The owner's Gc.quick_stat delta over the region: allocation split
         across domains, so only non-negativity is portable. *)
      Alcotest.(check bool) "gc.pool counters registered" true
        (counter "gc.pool.minor_words" >= 0
        && counter "gc.pool.promoted_words" >= 0
        && counter "gc.pool.minor_collections" >= 0
        && counter "gc.pool.major_collections" >= 0);
      match List.assoc_opt "pool.chunk_items" snap with
      | Some (Metrics.Histogram { total; sum; _ }) ->
          Alcotest.(check int) "one observation per chunk" 2 total;
          check_close "chunk sizes sum to the item count" 64. sum
      | _ -> Alcotest.fail "pool.chunk_items histogram missing")

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let count_occurrences ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i acc =
    if i + nl > sl then acc
    else if String.equal (String.sub s i nl) needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_chrome_trace_shape () =
  let dp = Domprof.create ~slots:2 () in
  Domprof.begin_region dp ~label:"r" ~items:10;
  Domprof.begin_chunk dp ~label:"r" ~slot:1 ~lo:5 ~hi:10;
  Domprof.end_chunk dp ~slot:1;
  Domprof.end_region dp;
  Domprof.begin_scope dp ~label:"quoted \"label\"";
  Domprof.end_scope dp;
  let s = Chrome_trace.to_string ~process_name:"test" dp in
  Alcotest.(check bool) "catapult envelope" true (contains s "{\"traceEvents\": [");
  Alcotest.(check bool) "display unit" true (contains s "\"displayTimeUnit\": \"ms\"");
  Alcotest.(check bool) "process metadata" true (contains s "\"process_name\"");
  Alcotest.(check bool) "caller thread named" true (contains s "slot 0 (caller)");
  Alcotest.(check bool) "worker thread named" true (contains s "slot 1 (worker 0)");
  Alcotest.(check bool) "labels are JSON-escaped" true (contains s "quoted \\\"label\\\"");
  Alcotest.(check int) "one complete event per entry" (Domprof.length dp)
    (count_occurrences ~needle:"\"ph\": \"X\"" s);
  Alcotest.(check bool) "chunk range in args" true
    (contains s "\"args\": {\"lo\": 5, \"hi\": 10, \"items\": 5}")

(* ------------------------------------------------------------------ *)
(* Profiling bit-identity: recording must not change any computed bit  *)

let test_golden_profiled () =
  (* The strongest sink we can build — metrics, spans with GC deltas, a
     timeline recorder — and the seed goldens must not move. *)
  let dp = Domprof.create () in
  let obs = Obs.create ~domprof:dp ~gc:true () in
  check_stats "pad+profiled" golden_pad (run_pad ~obs ());
  Alcotest.(check bool) "timeline recorded" true (Domprof.length dp > 0);
  let obs = Obs.create ~domprof:(Domprof.create ()) ~gc:true () in
  check_stats "csma+profiled" golden_csma (run_csma ~obs ())

let edge_list g = List.init (Graph.num_edges g) (Graph.endpoints g)

let test_profiled_pool_bit_identity =
  qtest "profiling on/off never changes pool-built outputs" ~count:10 seed_gen
    (fun seed ->
      let points = points_of_seed ~min_n:10 ~max_n:40 seed in
      let range = 2. *. Adhoc_topo.Udg.critical_range points in
      let build ?pool () =
        edge_list
          (Adhoc_topo.Theta_alg.overlay
             (Adhoc_topo.Theta_alg.build ?pool ~theta:(Float.pi /. 6.) ~range points))
      in
      let reference = build () in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let dp = Domprof.create ~slots:(Pool.jobs pool) () in
              let sink = Obs.create ~domprof:dp ~gc:true () in
              Obs.attach_pool sink pool;
              let profiled = build ~pool () in
              Obs.detach_pool pool;
              let plain = build ~pool () in
              profiled = reference && plain = reference))
        [ 1; 2; 4 ])

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          case "counter" test_metrics_counter;
          case "gauge" test_metrics_gauge;
          case "histogram boundaries" test_metrics_histogram_boundaries;
          case "kind clash" test_metrics_kind_clash;
          case "bad buckets" test_metrics_bad_buckets;
          case "snapshot sorted" test_metrics_snapshot_sorted;
        ] );
      ( "span",
        [
          case "nesting" test_span_nesting;
          case "unbalanced leave" test_span_unbalanced_leave;
          case "time is exception-safe" test_span_time_exception_safe;
          case "reset" test_span_reset;
          case "self (exclusive) time" test_span_self_time;
        ] );
      ( "event log",
        [
          case "record/get roundtrip" test_event_roundtrip;
          case "growth" test_event_growth;
          case "observer" test_event_observer;
          case "jsonl roundtrip is exact" test_event_jsonl_roundtrip;
          case "jsonl rejects bad input" test_event_jsonl_rejects;
          case "jsonl allows whitespace between tokens" test_event_jsonl_whitespace;
          case "jsonl line must be one object" test_event_jsonl_one_object;
          test_event_log_fuzz;
        ] );
      ( "invariants",
        [
          case "clean log passes" test_invariants_clean;
          case "non-monotone steps" test_invariants_monotone;
          case "send from empty buffer" test_invariants_empty_buffer;
          case "collide from empty buffer" test_invariants_empty_collide;
          case "delivered away from destination" test_invariants_delivered_wrong_node;
          case "moved at destination" test_invariants_moved_at_destination;
          case "spurious Deliver" test_invariants_spurious_deliver;
          case "missing Deliver" test_invariants_missing_deliver;
          case "endpoints mismatch" test_invariants_endpoints;
          case "inactive edge" test_invariants_edge_active;
          case "final stats reconciliation" test_invariants_final_check;
          case "violation cap" test_invariants_cap;
          case "group run absorbs at members" test_invariants_group_run;
          case "group delivery at a non-member" test_invariants_group_non_member;
        ] );
      ( "engine events",
        [
          case "pad golden with events + checker" test_events_golden_pad;
          case "plain golden with events + checker" test_events_golden_plain;
          case "csma golden with events + checker" test_events_golden_csma;
          case "collisions are checked" test_events_collisions_checked;
        ] );
      ( "journey",
        [
          case "replay matches tracked engine" test_journey_matches_tracked;
          case "replay survives the jsonl roundtrip" test_journey_survives_jsonl;
          test_journey_matches_tracked_random;
          case "corrupt log flagged" test_journey_flags_corrupt_log;
          case "edge table and timeline" test_journey_edge_table;
          case "group line read by both folds" test_journey_group_line;
          test_journey_group_random;
          case "delivered away is the checker's" test_journey_delivered_away;
        ] );
      ( "engine variants",
        [
          case "dynamic engine obs parity" test_dynamic_obs_parity;
          case "quantized engine obs parity" test_quantized_obs_parity;
          case "height_adverts counter" test_height_adverts_counter;
        ] );
      ( "engine golden",
        [
          case "obs disabled pins seed stats" test_golden_disabled;
          case "obs enabled is bit-identical" test_golden_enabled;
          case "csma with obs + stride" test_golden_enabled_csma;
          case "live windows sum to stats" test_live_partitions_stats;
        ] );
      ( "domprof",
        [
          case "deterministic slot-major merge" test_domprof_merge_order;
          case "children close before parents" test_domprof_nesting_order;
          case "unbalanced marks rejected" test_domprof_unbalanced;
          case "lane growth past initial capacity" test_domprof_growth;
          case "span instances mirror as scopes" test_span_domprof_scopes;
          case "pool region timeline" test_domprof_pool_timeline;
          case "jobs-1 hooks after an inline region" test_domprof_jobs1_after_inline;
          case "jobs=1 fast path still records" test_domprof_jobs1_timeline;
        ] );
      ( "gc telemetry",
        [
          case "span gc deltas" test_span_gc_delta;
          case "gc off means zero" test_span_gc_disabled_zero;
          case "pool gc counters + chunk histogram" test_pool_gc_counters;
        ] );
      ( "chrome trace",
        [ case "trace-event document shape" test_chrome_trace_shape ] );
      ( "profiling bit-identity",
        [
          case "engine goldens under full profiling" test_golden_profiled;
          test_profiled_pool_bit_identity;
        ] );
    ]
