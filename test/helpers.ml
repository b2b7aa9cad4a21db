(* Shared helpers for the test suites. *)

module Prng = Adhoc_util.Prng
module Point = Adhoc_geom.Point

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* Random point sets driven by a qcheck-provided seed, so shrinking stays
   meaningful (the seed shrinks, regenerating smaller-entropy sets). *)
let points_of_seed ?(min_n = 4) ?(max_n = 40) seed =
  let rng = Prng.create seed in
  let n = min_n + Prng.int rng (max_n - min_n + 1) in
  Adhoc_pointset.Generators.uniform rng n

let seed_gen = QCheck2.Gen.int_bound 1_000_000

(* A random ΘALG overlay on 6-25 uniform points at twice the critical
   range, with its conflict graph. *)
let overlay_instance seed =
  let module Theta_alg = Adhoc_topo.Theta_alg in
  let points = points_of_seed ~min_n:6 ~max_n:25 seed in
  let range = 2. *. Adhoc_topo.Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c =
    Adhoc_interference.Conflict.build (Adhoc_interference.Model.make ~delta:0.5) ~points g
  in
  (points, g, c)

let close ?(eps = 1e-9) a b =
  a = b (* covers equal infinities *)
  || Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let edge_set g =
  Adhoc_graph.Graph.fold_edges g ~init:[] ~f:(fun acc _ e ->
      (e.Adhoc_graph.Graph.u, e.Adhoc_graph.Graph.v) :: acc)
  |> List.sort compare

(* [is_subgraph h g]: every edge of [h] joins the same node pair as some
   edge of [g] (lengths not compared). *)
let is_subgraph h g =
  let module Graph = Adhoc_graph.Graph in
  Graph.n h = Graph.n g
  &&
  let rec ok id =
    id >= Graph.num_edges h
    || (Graph.mem_edge g (Graph.edge_u h id) (Graph.edge_v h id) && ok (id + 1))
  in
  ok 0

(* The indices within distance [r] of [p] in a spatial grid, unordered. *)
let indices_within grid p r =
  Adhoc_geom.Spatial_grid.fold_within grid p r ~init:[] ~f:(fun acc i -> i :: acc)

(* A graph bit for bit: node count, then every edge's id, endpoints and
   length (never nan), so polymorphic equality is exact. *)
let graph_digest g =
  ( Adhoc_graph.Graph.n g,
    Adhoc_graph.Graph.fold_edges g ~init:[] ~f:(fun acc id e ->
        (id, e.Adhoc_graph.Graph.u, e.Adhoc_graph.Graph.v, e.Adhoc_graph.Graph.len) :: acc) )

let case name f = Alcotest.test_case name `Quick f

(* CI matrix knob: tests that exercise ?pool kernels run them with this
   many jobs (in addition to the explicit jobs ∈ {1, 2, 4} sweeps).
   Unset or unparsable means 2. *)
let env_jobs () =
  match Sys.getenv_opt "ADHOC_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some j when j >= 1 -> j | _ -> 2)
  | None -> 2

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* A conflict graph's CSR rows as one array per edge, for oracles that
   compare or search whole rows. *)
let conflict_rows (c : Adhoc_interference.Conflict.t) =
  Array.init (Adhoc_interference.Conflict.num_edges c) (fun e ->
      Array.init (c.offsets.(e + 1) - c.offsets.(e)) (fun k ->
          Int32.to_int c.partners.{c.offsets.(e) + k}))

(* VmHWM, this process's peak resident set, in MB: [None] without
   /proc. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> None)
        (String.split_on_char '\n' status)

(* The step kernel over a changing topology: one [Rounds] phase per
   [(graph, conflict, steps)] epoch, on one set of buffers, with
   [Epoch_change] events numbering the epochs. *)
let run_epochs ?obs ?pool ~params ~injections epochs =
  let module Engine = Adhoc_routing.Engine in
  Engine.run ?obs ?pool ~who:"test" ~params ~heights:Live ~absorb:Destination ~injections
    (List.mapi
       (fun i (graph, c, steps) ->
         {
           Engine.graph;
           cost = Adhoc_graph.Cost.length;
           activation = Rounds (Some c);
           steps;
           epoch = Some i;
         })
       epochs)

(* Scenario 1 with §3.2's advertised heights: the workload's activations
   padded with [pad]'s colour classes for its horizon plus [cooldown]
   steps.  Returns the stats and the number of height broadcasts. *)
let run_advertised ?(cooldown = 0) ?obs ?pool ?on_step ?(cost = Adhoc_graph.Cost.length) ~pad
    ~quantum ~graph ~params (w : Adhoc_routing.Workload.t) =
  let module Engine = Adhoc_routing.Engine in
  let horizon = w.Adhoc_routing.Workload.horizon in
  let adverts = ref 0 in
  let stats =
    Engine.run ?obs ?pool ?on_step ~who:"test" ~params ~heights:(Advertised { quantum; adverts })
      ~absorb:Destination
      ~injections:(fun t -> if t < horizon then w.Adhoc_routing.Workload.injections.(t) else [])
      [
        {
          Engine.graph;
          cost;
          activation = Given (w, Some pad);
          steps = horizon + cooldown;
          epoch = None;
        };
      ]
  in
  (stats, !adverts)
