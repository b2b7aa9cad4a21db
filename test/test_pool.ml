(* Adhoc_util.Pool: deterministic chunking/reduction unit tests, plus the
   jobs-invariance pin: every ?pool-taking kernel must produce output
   bit-identical to its sequential path for jobs ∈ {1, 2, 4} (and for the
   CI matrix value in ADHOC_JOBS). *)

open Helpers
module Pool = Adhoc_util.Pool
module Topo = Adhoc_topo
module Point = Adhoc_geom.Point

let jobs_sweep =
  let base = [ 1; 2; 4 ] in
  let e = env_jobs () in
  if List.mem e base then base else base @ [ e ]

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)

let test_each_index_once () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Pool.parallel_for p n (fun i -> hits.(i) <- hits.(i) + 1);
              for i = 0 to n - 1 do
                if hits.(i) <> 1 then
                  Alcotest.failf "jobs=%d n=%d: index %d ran %d times" jobs n i hits.(i)
              done)
            [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 17; 64 ]))
    [ 1; 2; 3; 4; 5 ]

let test_parallel_init_matches () =
  let f i = (i * 31) + (i mod 7) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          List.iter
            (fun n ->
              Alcotest.(check (array int))
                (Printf.sprintf "init jobs=%d n=%d" jobs n)
                (Array.init n f) (Pool.parallel_init p n f))
            [ 0; 1; 2; 5; 16; 33 ]))
    jobs_sweep

let test_map_reduce_order () =
  (* Deliberately non-associative, non-commutative fold: only the exact
     sequential order reproduces it. *)
  let n = 57 in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    seq := (!seq * 31) + i
  done;
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let got =
            Pool.map_reduce p ~n ~map:(fun i -> i) ~init:0 ~fold:(fun acc x -> (acc * 31) + x) ()
          in
          Alcotest.(check int) (Printf.sprintf "map_reduce jobs=%d" jobs) !seq got))
    jobs_sweep

let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let raised =
            try
              Pool.parallel_for p 32 (fun i -> if i >= 13 then failwith (string_of_int i));
              "none"
            with Failure m -> m
          in
          Alcotest.(check string)
            (Printf.sprintf "lowest failing index surfaces at jobs=%d" jobs)
            "13" raised))
    jobs_sweep;
  (* The pool survives a raising region, also on the jobs-1 path that
     runs the chunk inline with no lock. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let raised =
            try
              Pool.parallel_for p 8 (fun i -> if i = 5 then failwith "boom");
              "none"
            with Failure m -> m
          in
          Alcotest.(check string) (Printf.sprintf "re-raised at jobs=%d" jobs) "boom" raised;
          Alcotest.(check (array int))
            (Printf.sprintf "usable after exception at jobs=%d" jobs)
            [| 0; 1; 2; 3 |]
            (Pool.parallel_init p 4 (fun i -> i))))
    [ 1; 3 ]

let test_reuse_and_shutdown () =
  let p = Pool.create ~jobs:4 () in
  Alcotest.(check int) "jobs" 4 (Pool.jobs p);
  let a = Pool.parallel_init p 100 (fun i -> i * i) in
  let b = Pool.parallel_init p 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "reuse gives same result" a b;
  Pool.shutdown p;
  Pool.shutdown p;
  (* After shutdown regions fall back to inline execution. *)
  Alcotest.(check (array int)) "inline after shutdown" (Array.init 9 succ)
    (Pool.parallel_init p 9 succ)

let test_nested_runs_inline () =
  Pool.with_pool ~jobs:4 (fun p ->
      let out = Array.make 12 (-1) in
      Pool.parallel_for p 3 (fun i ->
          (* Nested region: must run inline (no deadlock) and still cover
             its whole range. *)
          Pool.parallel_for p 4 (fun j -> out.((i * 4) + j) <- (i * 4) + j));
      Alcotest.(check (array int)) "nested coverage" (Array.init 12 (fun i -> i)) out)

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun p -> Alcotest.(check int) "jobs >= 1" 1 (Pool.jobs p));
  Alcotest.(check bool) "default jobs sane" true
    (let j = Pool.default_jobs () in
     j >= 1 && j <= 64)

(* ------------------------------------------------------------------ *)
(* Jobs-invariance: parallel ≡ sequential, bit-identical               *)

let check_graph_invariant name build =
  qtest name ~count:30 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let reference = graph_digest (build None points) in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p -> graph_digest (build (Some p) points) = reference))
        jobs_sweep)

let range_of points = Float.max 1e-6 (Topo.Udg.critical_range points) *. 1.2

let theta = Float.pi /. 3.

let graph_kernels =
  [
    ("yao", fun pool points -> Topo.Yao.graph ?pool ~theta ~range:(range_of points) points);
    ( "theta-alg overlay",
      fun pool points ->
        Topo.Theta_alg.overlay (Topo.Theta_alg.build ?pool ~theta ~range:(range_of points) points)
    );
    ("udg", fun pool points -> Topo.Udg.build ?pool ~range:(range_of points) points);
    ("gabriel", fun pool points -> Topo.Gabriel.build ?pool points);
    ("rng", fun pool points -> Topo.Rng_graph.build ?pool points);
    ("knn", fun pool points -> Topo.Knn.build ?pool ~k:3 points);
    ("cbtc sym", fun pool points -> (Topo.Cbtc.build ?pool ~alpha:(2. *. Float.pi /. 3.) ~range:(range_of points) points).Topo.Cbtc.graph);
    ("cbtc asym", fun pool points -> (Topo.Cbtc.build ?pool ~alpha:(2. *. Float.pi /. 3.) ~range:(range_of points) points).Topo.Cbtc.asymmetric);
  ]

let test_selections_invariant =
  qtest "yao selections jobs-invariant" ~count:30 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let reference = Topo.Yao.selections ~theta ~range points in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p -> Topo.Yao.selections ~pool:p ~theta ~range points = reference))
        jobs_sweep)

(* The whole build: both phases' per-node lists, the overlay and the
   three rounds' message counts. *)
let test_theta_alg_build_invariant =
  qtest "theta-alg build jobs-invariant" ~count:30 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let summary pool =
        let alg = Topo.Theta_alg.build ?pool ~theta ~range points in
        ( alg.Topo.Theta_alg.selections,
          alg.Topo.Theta_alg.admitted,
          graph_digest (Topo.Theta_alg.overlay alg),
          Topo.Theta_alg.messages alg )
      in
      let reference = summary None in
      List.for_all
        (fun jobs -> Pool.with_pool ~jobs (fun p -> summary (Some p) = reference))
        jobs_sweep)

let test_cbtc_radii_invariant =
  qtest "cbtc radii jobs-invariant" ~count:30 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let alpha = 2. *. Float.pi /. 3. in
      let reference = (Topo.Cbtc.build ~alpha ~range points).Topo.Cbtc.radii in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              (Topo.Cbtc.build ~pool:p ~alpha ~range points).Topo.Cbtc.radii = reference))
        jobs_sweep)

let test_stretch_invariant =
  qtest "stretch sweeps jobs-invariant" ~count:20 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let base = Topo.Udg.build ~range points in
      let sub =
        Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta ~range points)
      in
      let cost = Adhoc_graph.Cost.energy ~kappa:2. in
      let module S = Adhoc_graph.Stretch in
      let r_prof = S.per_edge_profile ~sub ~base ~cost () in
      let r_edge = S.over_base_edges ~sub ~base ~cost () in
      let r_euc = S.vs_euclidean ~sub ~points () in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              (* nan = nan must count as equal in the profile: compare with
                 Float.compare, which orders nan deterministically. *)
              Array.for_all2
                (fun a b ->
                  let c = Float.compare a b in
                  c = 0)
                (S.per_edge_profile ~pool:p ~sub ~base ~cost ())
                r_prof
              && (let c = Float.compare (S.over_base_edges ~pool:p ~sub ~base ~cost ()) r_edge in
                  c = 0)
              &&
              let c = Float.compare (S.vs_euclidean ~pool:p ~sub ~points ()) r_euc in
              c = 0))
        jobs_sweep)

let test_conflict_invariant =
  qtest "conflict sets jobs-invariant" ~count:20 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let g =
        Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta ~range points)
      in
      let model = Adhoc_interference.Model.make ~delta:0.5 in
      let reference = Adhoc_interference.Conflict.build model ~points g in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              Adhoc_interference.Conflict.build ~pool:p model ~points g = reference))
        jobs_sweep)

(* ------------------------------------------------------------------ *)
(* Grid paths vs brute oracles                                         *)

let test_knn_vs_brute =
  qtest "knn grid = brute oracle" ~count:40 seed_gen (fun seed ->
      let points = points_of_seed seed in
      List.for_all
        (fun k ->
          graph_digest (Topo.Knn.build ~k points) = graph_digest (Reference_knn.build_brute ~k points)
          &&
          let range = range_of points in
          graph_digest (Topo.Knn.build ~range ~k points)
          = graph_digest (Reference_knn.build_brute ~range ~k points))
        [ 1; 3; 7 ])

let test_cbtc_vs_brute =
  qtest "cbtc radii match coverage_ok growth" ~count:30 seed_gen (fun seed ->
      let points = points_of_seed seed in
      let range = range_of points in
      let alpha = 2. *. Float.pi /. 3. in
      let t = Topo.Cbtc.build ~alpha ~range points in
      let n = Array.length points in
      let ok = ref true in
      for u = 0 to n - 1 do
        let dists =
          Array.to_list points
          |> List.filteri (fun v _ -> v <> u)
          |> List.map (Point.dist points.(u))
          |> List.filter (fun d -> d <= range)
          |> List.sort Float.compare
        in
        let rec grow = function
          | [] -> range
          | d :: rest -> if Reference_cbtc.coverage_ok ~alpha points u d then d else grow rest
        in
        let c = Float.compare (grow dists) t.Topo.Cbtc.radii.(u) in
        if c <> 0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pool"
    [
      ( "mechanics",
        [
          case "each index exactly once" test_each_index_once;
          case "parallel_init = Array.init" test_parallel_init_matches;
          case "map_reduce sequential order" test_map_reduce_order;
          case "exception from lowest index" test_exception_lowest_index;
          case "reuse and shutdown" test_reuse_and_shutdown;
          case "nested regions inline" test_nested_runs_inline;
          case "jobs clamped" test_jobs_clamped;
        ] );
      ( "jobs-invariance",
        List.map (fun (name, b) -> check_graph_invariant (name ^ " jobs-invariant") b) graph_kernels
        @ [
            test_selections_invariant;
            test_theta_alg_build_invariant;
            test_cbtc_radii_invariant;
            test_stretch_invariant;
            test_conflict_invariant;
          ] );
      ( "grid-vs-brute",
        [ test_knn_vs_brute; test_cbtc_vs_brute ] );
    ]
