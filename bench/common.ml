(* Shared helpers for the experiment harness. *)

open Adhoc
module Prng = Util.Prng
module Graph = Graphs.Graph
module Cost = Graphs.Cost
module Table = Util.Table
module Stats = Util.Stats

let theta_default = Float.pi /. 6.

(* Ambient observability sink.  The harness installs a fresh sink around
   each experiment; experiments thread [current_obs ()] into the pipeline
   so the v2 JSON output can embed span timings and metric snapshots per
   experiment. *)
let obs_sink : Obs.sink option ref = ref None

let current_obs () = !obs_sink

(* Ambient domain pool.  The harness creates one from --jobs and installs
   it here; experiments thread [current_pool ()] into ?pool-taking kernels
   and fan independent per-seed trials out with [map_seeds]. *)
let pool : Util.Pool.t option ref = ref None

let current_pool () = !pool

(* Per-seed fan-out.  Trials are independent (each creates its own PRNG
   from its seed), so with a pool installed they run across domains;
   results come back in seed order, so any downstream fold is identical
   to the sequential loop.  The ambient obs sink is detached for the
   duration — trial bodies would otherwise mutate it concurrently — which
   also keeps the recorded obs snapshot identical for every --jobs value,
   an invariant json_check --compare relies on. *)
let map_seeds f seed_list =
  match !pool with
  | None -> List.map f seed_list
  | Some p ->
      let arr = Array.of_list seed_list in
      let saved = !obs_sink in
      obs_sink := None;
      Fun.protect
        ~finally:(fun () -> obs_sink := saved)
        (fun () ->
          Util.Pool.parallel_init p ~label:"bench/seeds" (Array.length arr) (fun i -> f arr.(i)))
      |> Array.to_list

(* Build a connected instance on [n] uniform nodes. *)
let uniform_instance ?(range_factor = 1.5) ?(theta = theta_default) ?(delta = 0.5) seed n =
  let rng = Prng.create seed in
  let points = Pointset.Generators.uniform rng n in
  let range = range_factor *. Topo.Udg.critical_range points in
  (rng, Pipeline.prepare ~delta ~theta ?obs:(current_obs ()) ?pool:(current_pool ()) ~range points)

let mean_and_max values =
  let s = Stats.summarize values in
  (s.Stats.mean, s.Stats.max)

let fmt2 = Printf.sprintf "%.2f"
let fmt3 = Printf.sprintf "%.3f"
let fmt4 = Printf.sprintf "%.4f"

(* Ratios can be undefined (Engine.cost_ratio is nan when nothing was
   delivered); tables render that as "n/a" rather than a fake number. *)
let fmt_ratio v = if Float.is_nan v then "n/a" else fmt3 v

let seeds k = List.init k (fun i -> 1000 + (17 * i))

let header title =
  Printf.printf "\n=== %s ===\n\n%!" title

(* --- machine-readable output -------------------------------------- *)

(* Headline-metric accumulator.  Experiments call [record_*] while they run;
   the harness snapshots and clears the list around each experiment and, when
   --json FILE was given, writes every experiment's metrics at the end. *)
let metrics : (string * Util.Json.t) list ref = ref []

let record name v = metrics := (name, v) :: !metrics

let record_float name v = record name (Util.Json.float v)

let record_int name v = record name (Util.Json.int v)

let take_metrics () =
  let m = List.rev !metrics in
  metrics := [];
  m

(* Live-telemetry summary for the current experiment.  An experiment that
   runs an Obs.Live recorder stores the cumulative record here as JSON;
   the harness snapshots and clears the slot around each experiment and
   embeds it as the outcome's "live" member (null when the experiment ran
   no recorder). *)
let live_summary : Util.Json.t ref = ref Util.Json.Null

let record_live j = live_summary := j

let take_live () =
  let l = !live_summary in
  live_summary := Util.Json.Null;
  l

(* The cumulative live record as bench JSON.  Every field is a pure
   function of the event stream, so json_check --compare pins the whole
   member exactly across --jobs. *)
let live_json l =
  let c = Obs.Live.finish l in
  let t = c.Obs.Live.totals in
  let open Util.Json in
  let tops xs = Arr (List.map (fun (k, n, e) -> Arr [ int k; int n; int e ]) xs) in
  Obj
    [
      ("window", int (Obs.Live.window_size l));
      ("top_k", int Obs.Live.top_k);
      ("steps", int c.Obs.Live.steps);
      ("events", int c.Obs.Live.events);
      ("windows", int c.Obs.Live.windows);
      ("injected", int t.Obs.Mirror.injected);
      ("dropped", int t.Obs.Mirror.dropped);
      ("delivered", int t.Obs.Mirror.delivered);
      ("self", int t.Obs.Mirror.self_deliveries);
      ("sends", int t.Obs.Mirror.sends);
      ("collisions", int t.Obs.Mirror.collisions);
      ("control", int (t.Obs.Mirror.epochs + t.Obs.Mirror.height_adverts));
      ("buffered", int t.Obs.Mirror.buffered);
      ("violations", int c.Obs.Live.c_violations);
      ("healthy", Bool c.Obs.Live.healthy);
      ("anomalies", int t.Obs.Mirror.anomalies);
      ("energy", float t.Obs.Mirror.energy);
      ("latency_mean", float c.Obs.Live.latency_mean);
      ("latency_p50", float c.Obs.Live.c_latency_p50);
      ("latency_p95", float c.Obs.Live.c_latency_p95);
      ("hops_p50", float c.Obs.Live.c_hops_p50);
      ("hops_p95", float c.Obs.Live.c_hops_p95);
      ("occupancy_p50", float c.Obs.Live.c_occupancy_p50);
      ("occupancy_p95", float c.Obs.Live.c_occupancy_p95);
      ("occupancy_max", float c.Obs.Live.occupancy_max);
      ("top_edges", tops c.Obs.Live.c_top_edges);
      ("top_nodes", tops c.Obs.Live.top_nodes);
    ]

(* --- timing sweeps (B1, B2, B4) ------------------------------------- *)

(* Wall-clock seconds of [f]: one warm-up run, then the faster of two
   timed runs.  Every run builds its own state, so the runs are
   independent. *)
let time_s f =
  ignore (f ());
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let first = once () in
  Float.min first (once ())

(* The sweeps' instance: [n] uniform points from seed 2024 and 1.5x the
   connectivity radius.  Below 8192 nodes that radius is the exact
   critical range (longest Euclidean-MST edge); from 8192 up it is the
   analytic radius sqrt(ln n / (pi n)) of uniform point sets — a pure
   function of n — because BENCH_BASELINE.json's B2 and B4 pins were
   recorded with it.  Switching to the exact range re-records them. *)
let sweep_instance n =
  let points = Pointset.Generators.uniform (Prng.create 2024) n in
  let range =
    if n < 8192 then 1.5 *. Topo.Udg.critical_range points
    else
      let nf = float_of_int n in
      1.5 *. Float.sqrt (Float.log nf /. (Float.pi *. nf))
  in
  (points, range)

(* One pool per jobs value, attached to the experiment's sink like the
   shared bench pool, so the snapshot's pool.regions / pool.items count
   the sweep's runs (a function of the fixed jobs grid, not of the
   machine); detached and shut down afterwards. *)
let with_pools jobs f =
  let pools = List.map (fun j -> (j, Util.Pool.create ~jobs:j ())) jobs in
  List.iter (fun (_, p) -> Option.iter (fun sink -> Obs.attach_pool sink p) (current_obs ())) pools;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, p) ->
          Obs.detach_pool p;
          Util.Pool.shutdown p)
        pools)
    (fun () -> f pools)

(* Profiled pass: one more run of [run pool] on a fresh per-domain
   recorder, recording its busy-time balance ("pool.imbalance:*") and
   owner-domain GC delta ("gc:*") under [key metric].  Both are timing-
   or runtime-derived, so --compare only warns on them; the metric names
   are a pure function of the sweep. *)
let profile ~key pool run =
  Option.iter
    (fun sink ->
      let dp = Obs.Domprof.create ~slots:(Util.Pool.jobs pool) () in
      Obs.attach_pool ~domprof:dp sink pool;
      let g0 = Obs.Gcstat.read () in
      ignore (run pool);
      let g = Obs.Gcstat.delta ~before:g0 ~after:(Obs.Gcstat.read ()) in
      (* Back to the sink's own recorder (if any) for later runs. *)
      Obs.attach_pool sink pool;
      let busy f = Option.fold ~none:0. ~some:f (Obs.Domprof.summary dp) in
      List.iter
        (fun (metric, v) -> record_float (key metric) v)
        [
          ("pool.imbalance:ratio", busy (fun s -> s.Obs.Domprof.imbalance));
          ("pool.imbalance:busy_min_s", busy (fun s -> s.Obs.Domprof.busy_min));
          ("pool.imbalance:busy_max_s", busy (fun s -> s.Obs.Domprof.busy_max));
          ("pool.imbalance:busy_mean_s", busy (fun s -> s.Obs.Domprof.busy_mean));
          ("gc:minor_words", g.Obs.Gcstat.minor_words);
          ("gc:promoted_words", g.Obs.Gcstat.promoted_words);
          ("gc:minor_collections", float_of_int g.Obs.Gcstat.minor_collections);
          ("gc:major_collections", float_of_int g.Obs.Gcstat.major_collections);
        ])
    (current_obs ())
