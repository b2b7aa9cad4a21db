open Adhoc
open Helpers

let build seed =
  let rng = Prng.create seed in
  let points = Pointset.Generators.uniform rng 60 in
  let range = 1.5 *. Topo.Udg.critical_range points in
  Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points

let test_prepare_invariants =
  qtest "prepare: overlay ⊆ G*, connected, I consistent" ~count:15 seed_gen (fun seed ->
      let b = build seed in
      is_subgraph b.Pipeline.overlay b.Pipeline.gstar
      && Graphs.Components.is_connected b.Pipeline.overlay
      && b.Pipeline.interference_number
         = Interference.Conflict.interference_number b.Pipeline.conflict)

let sane (r : Pipeline.result) =
  let s = r.Pipeline.stats in
  s.Routing.Engine.injected = s.Routing.Engine.delivered + s.Routing.Engine.remaining
  && r.Pipeline.throughput_ratio >= 0.
  && r.Pipeline.throughput_ratio <= 1.0001
  && r.Pipeline.opt.Routing.Workload.deliveries > 0

let test_scenario1_sane () =
  let b = build 1 in
  let r = Pipeline.run_scenario1 ~horizon:600 ~attempts:800 ~flows:2 ~rng:(Prng.create 2) b in
  Alcotest.(check bool) "sane" true (sane r);
  Alcotest.(check bool) "delivers something" true (r.Pipeline.stats.Routing.Engine.delivered > 0)

let test_scenario2_sane () =
  let b = build 1 in
  let r = Pipeline.run_scenario2 ~horizon:600 ~attempts:800 ~flows:2 ~rng:(Prng.create 3) b in
  Alcotest.(check bool) "sane" true (sane r)

let test_honeycomb_sane () =
  (* Fixed-strength geometry: range 1, nodes over several hexagons. *)
  let rng = Prng.create 4 in
  let box = Geom.Box.square 8. in
  let points = Pointset.Generators.uniform ~box rng 80 in
  let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range:1.3 points in
  let r = Pipeline.run_honeycomb ~horizon:800 ~attempts:800 ~flows:2 ~rng:(Prng.create 5) b in
  Alcotest.(check bool) "sane" true (sane r)

let test_pipeline_deterministic () =
  let run () =
    let b = build 7 in
    let r = Pipeline.run_scenario1 ~horizon:300 ~attempts:300 ~flows:2 ~rng:(Prng.create 8) b in
    r.Pipeline.stats
  in
  Alcotest.(check bool) "same stats" true (run () = run ())


let test_honeycomb_deterministic () =
  let run () =
    let rng = Prng.create 4 in
    let box = Geom.Box.square 8. in
    let points = Pointset.Generators.uniform ~box rng 80 in
    let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range:1.3 points in
    (Pipeline.run_honeycomb ~horizon:400 ~attempts:400 ~flows:2 ~rng:(Prng.create 5) b)
      .Pipeline.stats
  in
  Alcotest.(check bool) "same stats" true (run () = run ())

let test_prepare_validation () =
  Alcotest.check_raises "bad theta" (Invalid_argument "Theta_alg.build: bad theta")
    (fun () ->
      ignore (Pipeline.prepare ~theta:0. ~range:1. [| Geom.Point.origin |]))

let () =
  Alcotest.run "pipeline"
    [
      ( "pipeline",
        [
          test_prepare_invariants;
          case "scenario 1" test_scenario1_sane;
          case "scenario 2" test_scenario2_sane;
          case "honeycomb" test_honeycomb_sane;
          case "deterministic" test_pipeline_deterministic;
          case "honeycomb deterministic" test_honeycomb_deterministic;
          case "prepare validation" test_prepare_validation;
        ] );
    ]
