module Mac = Adhoc_mac.Mac
module Honeycomb = Adhoc_mac.Honeycomb
module Conflict = Adhoc_interference.Conflict
module Model = Adhoc_interference.Model
module Graph = Adhoc_graph.Graph
module Udg = Adhoc_topo.Udg
module Theta_alg = Adhoc_topo.Theta_alg
module Hexgrid = Adhoc_geom.Hexgrid
open Helpers
module R = Reference_mac

let overlay_instance seed =
  let points = points_of_seed ~min_n:8 ~max_n:35 seed in
  let range = 2. *. Udg.critical_range points in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range points in
  let g = Theta_alg.overlay alg in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  (points, range, g, c)

let all_requests g =
  Graph.fold_edges g ~init:[] ~f:(fun acc e edge ->
      { R.edge = e; sender = edge.Graph.u; benefit = 1. +. float_of_int e } :: acc)
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Color MAC                                                           *)

let test_color_grants_independent =
  qtest "colour MAC grants are non-interfering" ~count:40 seed_gen (fun seed ->
      let _, _, g, c = overlay_instance seed in
      let mac = R.Array_mac.color c in
      let reqs = all_requests g in
      let ok = ref true in
      for step = 0 to 20 do
        let granted = R.grant mac ~step reqs in
        if not (Conflict.independent c (List.map (fun r -> r.R.edge) granted)) then ok := false
      done;
      !ok)

let test_color_covers_all_edges =
  qtest "every edge granted once per colour cycle" ~count:40 seed_gen (fun seed ->
      let _, _, g, c = overlay_instance seed in
      let mac = R.Array_mac.color c in
      let reqs = all_requests g in
      let _, k = Conflict.greedy_coloring c in
      let granted = ref [] in
      for step = 0 to max 0 (k - 1) do
        granted := List.map (fun r -> r.R.edge) (R.grant mac ~step reqs) @ !granted
      done;
      List.sort_uniq compare !granted = List.init (Graph.num_edges g) Fun.id)

(* ------------------------------------------------------------------ *)
(* Random interference MAC (Lemma 3.2 setting)                         *)

let test_random_mac_rate () =
  let _, _, g, c = overlay_instance 5 in
  QCheck2.assume (Graph.num_edges g > 0);
  let rng = Prng.create 42 in
  let mac = Mac.random_interference ~rng c in
  let reqs = all_requests g in
  let sizes = Conflict.neighborhood_bounds c in
  let grants = Array.make (Graph.num_edges g) 0 in
  let steps = 20000 in
  for step = 1 to steps do
    List.iter (fun r -> grants.(r.R.edge) <- grants.(r.R.edge) + 1) (R.grant mac ~step reqs)
  done;
  (* Each edge's empirical activation rate ~ 1/(2 I_e), within 5 sigma. *)
  Array.iteri
    (fun e count ->
      let p = 1. /. (2. *. float_of_int (max 1 sizes.(e))) in
      let mean = p *. float_of_int steps in
      let sigma = sqrt (float_of_int steps *. p *. (1. -. p)) in
      let dev = Float.abs (float_of_int count -. mean) in
      if dev > 5. *. sigma +. 1. then
        Alcotest.failf "edge %d: rate %f expected %f" e
          (float_of_int count /. float_of_int steps)
          p)
    grants

let test_random_mac_subset =
  qtest "random MAC grants subset of requests" ~count:30 seed_gen (fun seed ->
      let _, _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let mac = Mac.random_interference ~rng c in
      let reqs = all_requests g in
      let granted = R.grant mac ~step:0 reqs in
      List.for_all (fun r -> List.memq r reqs) granted)

(* ------------------------------------------------------------------ *)
(* Greedy independent MAC                                              *)

let test_greedy_mac =
  qtest "greedy MAC: independent, maximal, benefit-greedy" ~count:40 seed_gen (fun seed ->
      let _, _, g, c = overlay_instance seed in
      let mac = R.Array_mac.greedy_independent c in
      let reqs = all_requests g in
      let granted = R.grant mac ~step:0 reqs in
      let ids = List.map (fun r -> r.R.edge) granted in
      Conflict.independent c ids
      && List.for_all
           (fun r ->
             List.mem r.R.edge ids
             || List.exists (fun e -> Conflict.interfere c r.R.edge e) ids)
           reqs)

let test_all_mac () =
  let reqs =
    [ { R.edge = 0; sender = 1; benefit = 2. }; { R.edge = 4; sender = 3; benefit = 1. } ]
  in
  Alcotest.(check bool) "identity" true (R.grant R.Array_mac.all ~step:3 reqs = reqs)


let test_csma_independent_and_maximal =
  qtest "CSMA grants are independent and maximal" ~count:40 seed_gen (fun seed ->
      let _, _, g, c = overlay_instance seed in
      let mac = Mac.csma ~rng:(Prng.create seed) c in
      let reqs = all_requests g in
      let granted = R.grant mac ~step:0 reqs in
      let ids = List.map (fun r -> r.R.edge) granted in
      Conflict.independent c ids
      && List.for_all
           (fun r ->
             List.mem r.R.edge ids
             || List.exists (fun e -> Conflict.interfere c r.R.edge e) ids)
           reqs)

let test_csma_fairness () =
  (* Two mutually interfering edges: over many steps each must win about
     half the time (random back-off order). *)
  let points = [| Point.make 0. 0.; Point.make 0.1 0.; Point.make 0. 0.05; Point.make 0.1 0.05 |] in
  let g = Graph.geometric points [ (0, 1); (2, 3) ] in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  QCheck2.assume (Conflict.interference_number c > 0);
  let mac = Mac.csma ~rng:(Prng.create 3) c in
  let reqs =
    [ { R.edge = 0; sender = 0; benefit = 1. }; { R.edge = 1; sender = 2; benefit = 1. } ]
  in
  let wins = Array.make 2 0 in
  let steps = 20000 in
  for step = 1 to steps do
    match R.grant mac ~step reqs with
    | [ r ] -> wins.(r.R.edge) <- wins.(r.R.edge) + 1
    | l -> Alcotest.failf "expected exactly one grant, got %d" (List.length l)
  done;
  let p = float_of_int wins.(0) /. float_of_int steps in
  if Float.abs (p -. 0.5) > 0.02 then Alcotest.failf "unfair: %f" p

(* ------------------------------------------------------------------ *)
(* Honeycomb MAC                                                       *)

let honeycomb_instance () =
  (* Nodes spread over several hexagons: box 20x20, range 1. *)
  let rng = Prng.create 77 in
  let box = Adhoc_geom.Box.square 20. in
  let points = Adhoc_pointset.Generators.uniform ~box rng 120 in
  let hc =
    Honeycomb.create ~delta:0.5 ~range:1. ~threshold:2. ~rng:(Prng.create 5) points
  in
  (points, hc)

let test_honeycomb_one_per_hexagon () =
  let _, hc = honeycomb_instance () in
  let mac = Honeycomb.mac hc in
  (* Requests everywhere with benefit above threshold; grants must name at
     most one sender-hexagon each. *)
  let reqs =
    List.init 120 (fun i -> { R.edge = i; sender = i; benefit = 3. +. float_of_int (i mod 7) })
  in
  for step = 0 to 50 do
    let granted = R.grant mac ~step reqs in
    let hexes = List.map (fun r -> Honeycomb.hexagon_of hc r.R.sender) granted in
    let distinct = List.sort_uniq Hexgrid.compare_coord hexes in
    Alcotest.(check int) "one contestant per hexagon" (List.length hexes) (List.length distinct)
  done

let test_honeycomb_threshold () =
  let _, hc = honeycomb_instance () in
  let mac = Honeycomb.mac hc in
  let low = List.init 120 (fun i -> { R.edge = i; sender = i; benefit = 1. }) in
  for step = 0 to 20 do
    Alcotest.(check int) "below threshold never granted" 0
      (List.length (R.grant mac ~step low))
  done

let test_honeycomb_rate () =
  let _, hc = honeycomb_instance () in
  let mac = Honeycomb.mac hc in
  (* One hexagon contested: a single high-benefit request. *)
  let reqs = [ { R.edge = 0; sender = 0; benefit = 10. } ] in
  let grants = ref 0 in
  let steps = 30000 in
  for step = 1 to steps do
    if R.grant mac ~step reqs <> [] then incr grants
  done;
  let p = float_of_int !grants /. float_of_int steps in
  if Float.abs (p -. (1. /. 6.)) > 0.02 then Alcotest.failf "p_t off: %f" p

let test_honeycomb_picks_max_benefit () =
  let points = [| Point.make 0.1 0.1; Point.make 0.2 0.2 |] in
  (* Both nodes in the same hexagon (side 4, both near origin). *)
  let hc =
    Honeycomb.create ~p_t:1. ~delta:0.5 ~range:1. ~threshold:0.5 ~rng:(Prng.create 1) points
  in
  Alcotest.(check bool) "same hexagon" true
    (Hexgrid.equal_coord (Honeycomb.hexagon_of hc 0) (Honeycomb.hexagon_of hc 1));
  let mac = Honeycomb.mac hc in
  let reqs =
    [
      { R.edge = 0; sender = 0; benefit = 1. };
      { R.edge = 1; sender = 1; benefit = 5. };
    ]
  in
  match R.grant mac ~step:0 reqs with
  | [ r ] -> Alcotest.(check int) "max benefit wins" 1 r.R.edge
  | l -> Alcotest.failf "expected one grant, got %d" (List.length l)

let test_honeycomb_grid_side () =
  let _, hc = honeycomb_instance () in
  check_close "side = (3+2delta)*range" 4. (Hexgrid.side (Honeycomb.grid hc))


(* Lemma 3.7: with p_t <= 1/6, each contestant succeeds (no interfering
   contestant transmits simultaneously) with probability at least 1/2.
   Measured over many steps with all hexagons contested. *)
let test_honeycomb_lemma_3_7 () =
  let rng = Prng.create 21 in
  let box = Adhoc_geom.Box.square 30. in
  let points = Adhoc_pointset.Generators.uniform ~box rng 300 in
  let range = 1. in
  let gstar = Adhoc_topo.Udg.build ~range points in
  QCheck2.assume (Graph.num_edges gstar > 10);
  let conflict = Conflict.build (Model.make ~delta:0.5) ~points gstar in
  let hc =
    Honeycomb.create ~delta:0.5 ~range ~threshold:0.5 ~rng:(Prng.create 22) points
  in
  let mac = Honeycomb.mac hc in
  let requests =
    Graph.fold_edges gstar ~init:[] ~f:(fun acc e edge ->
        { R.edge = e; sender = edge.Graph.u; benefit = 1. +. float_of_int (e mod 5) } :: acc)
  in
  let granted_total = ref 0 and collided_total = ref 0 in
  for step = 1 to 20000 do
    let granted = R.grant mac ~step requests in
    List.iter
      (fun (r : R.request) ->
        incr granted_total;
        if
          List.exists
            (fun (r' : R.request) ->
              r'.R.edge <> r.R.edge && Conflict.interfere conflict r.R.edge r'.R.edge)
            granted
        then incr collided_total)
      granted
  done;
  QCheck2.assume (!granted_total > 500);
  let p = float_of_int !collided_total /. float_of_int !granted_total in
  if p > 0.5 then Alcotest.failf "contestant collision probability %.3f > 1/2" p

(* Lemma 3.6 (shape): the contestants' total benefit is within a constant
   factor of the best independent set's total benefit. *)
let test_honeycomb_lemma_3_6 () =
  let rng = Prng.create 23 in
  let box = Adhoc_geom.Box.square 30. in
  let points = Adhoc_pointset.Generators.uniform ~box rng 300 in
  let range = 1. in
  let gstar = Adhoc_topo.Udg.build ~range points in
  QCheck2.assume (Graph.num_edges gstar > 10);
  let conflict = Conflict.build (Model.make ~delta:0.5) ~points gstar in
  let hc =
    Honeycomb.create ~p_t:1. ~delta:0.5 ~range ~threshold:0.5 ~rng:(Prng.create 24) points
  in
  let requests =
    Graph.fold_edges gstar ~init:[] ~f:(fun acc e edge ->
        { R.edge = e; sender = edge.Graph.u; benefit = 1. +. float_of_int (e mod 7) } :: acc)
  in
  (* p_t = 1: the grant is exactly the contestant set. *)
  let contestants = R.grant (Honeycomb.mac hc) ~step:0 requests in
  let benefit l = List.fold_left (fun a (r : R.request) -> a +. r.R.benefit) 0. l in
  (* Benefit-greedy independent set as a stand-in for the best one. *)
  let indep = R.grant (R.Array_mac.greedy_independent conflict) ~step:0 requests in
  Alcotest.(check bool) "within constant factor" true
    (benefit contestants *. 24. >= benefit indep)

(* ------------------------------------------------------------------ *)
(* Array MACs against the list-based reference                         *)

(* A random request set as the engine lists it (ascending edge id), the
   same set as E8 lists it (descending), and the empty and
   single-request sets.  Benefits take few values, so ties occur. *)
let request_sets rng g =
  let req e =
    {
      R.edge = e;
      sender = (if Prng.bool rng then Graph.edge_u g e else Graph.edge_v g e);
      benefit = 0.5 *. float_of_int (Prng.int rng 8);
    }
  in
  let ascending =
    List.filter_map
      (fun e -> if Prng.int rng 4 = 0 then None else Some (req e))
      (List.init (Graph.num_edges g) Fun.id)
  in
  [ ascending; List.rev ascending; []; List.filteri (fun i _ -> i = 0) ascending ]

(* Each array MAC grants the same requests, in the same order, as its list
   reference, over several steps of every request set, and leaves its
   generator in the same state. *)
let test_array_macs_match_reference =
  qtest "array MACs = list reference (grants, order, generator)" ~count:40 seed_gen
    (fun seed ->
      let points, _, g, c = overlay_instance seed in
      let pairs =
        [
          ((fun _ -> R.Array_mac.color c), fun _ -> R.color c);
          ((fun rng -> Mac.random_interference ~rng c), fun rng -> R.random_interference ~rng c);
          ((fun _ -> R.Array_mac.greedy_independent c), fun _ -> R.greedy_independent c);
          ((fun rng -> Mac.csma ~rng c), fun rng -> R.csma ~rng c);
          ((fun _ -> R.Array_mac.all), fun _ -> R.all);
          ( (fun rng ->
              Honeycomb.mac (Honeycomb.create ~delta:0.5 ~range:0.05 ~threshold:1. ~rng points)),
            fun rng ->
              let hc = Honeycomb.create ~delta:0.5 ~range:0.05 ~threshold:1. ~rng points in
              R.honeycomb ~threshold:1. ~rng (Honeycomb.hexagon_of hc) );
        ]
      in
      let sets = request_sets (Prng.create (seed + 1)) g in
      List.for_all
        (fun (array_mac, list_mac) ->
          let rng_a = Prng.create seed and rng_l = Prng.create seed in
          let a = array_mac rng_a and l = list_mac rng_l in
          List.for_all
            (fun reqs ->
              List.for_all
                (fun step -> R.grant a ~step reqs = l.R.select ~step reqs)
                (List.init 6 Fun.id))
            sets
          && Prng.bits64 rng_a = Prng.bits64 rng_l)
        pairs)

let () =
  Alcotest.run "mac"
    [
      ( "color",
        [ test_color_grants_independent; test_color_covers_all_edges ] );
      ( "random",
        [ case "activation rate" test_random_mac_rate; test_random_mac_subset ] );
      ("greedy", [ test_greedy_mac; case "all-mac identity" test_all_mac ]);
      ( "csma",
        [ test_csma_independent_and_maximal; case "fairness" test_csma_fairness ] );
      ( "honeycomb",
        [
          case "one per hexagon" test_honeycomb_one_per_hexagon;
          case "threshold" test_honeycomb_threshold;
          case "transmit rate" test_honeycomb_rate;
          case "max benefit wins" test_honeycomb_picks_max_benefit;
          case "grid side" test_honeycomb_grid_side;
          case "Lemma 3.7 collision bound" test_honeycomb_lemma_3_7;
          case "Lemma 3.6 benefit factor" test_honeycomb_lemma_3_6;
        ] );
      ("reference", [ test_array_macs_match_reference ]);
    ]
