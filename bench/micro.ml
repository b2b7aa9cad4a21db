(* B1: micro-benchmarks of the core construction and simulation
   primitives, one thunk per operation, each timed by Common.time_s. *)

open Adhoc
module Prng = Util.Prng

let theta = Common.theta_default

let fixture n =
  let points, range = Common.sweep_instance n in
  (points, range, Pipeline.prepare ~theta ~range points)

(* Routing hot-path benchmarks run at n = 512 on prebuilt workloads, so the
   measured cost is the engine itself, not instance construction. *)
let routing_fixture =
  lazy
    (let _, _, b = fixture 512 in
     let config =
       { Routing.Workload.horizon = 2000; attempts = 1000; slack = 12; interference_free = false }
     in
     let w =
       Routing.Workload.flows config ~rng:(Prng.create 5) ~graph:b.Pipeline.overlay
         ~cost:Graphs.Cost.length ~num_flows:4
     in
     let wq =
       Routing.Workload.flows ~conflict:b.Pipeline.conflict
         { config with Routing.Workload.interference_free = true }
         ~rng:(Prng.create 6) ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length
         ~num_flows:4
     in
     (b, w, wq))

let routing_params = Routing.Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:100

let ops () =
  let points, range, b = fixture 256 in
  let overlay = b.Pipeline.overlay in
  let op name f = ("micro/" ^ name, fun () -> ignore (f ())) in
  [
    op "udg-build" (fun () -> Topo.Udg.build ~range points);
    op "yao-build" (fun () -> Topo.Yao.graph ~theta ~range points);
    op "theta-alg-build" (fun () -> Topo.Theta_alg.build ~theta ~range points);
    op "gabriel-build" (fun () -> Topo.Gabriel.build ~range points);
    op "delaunay-build" (fun () -> Topo.Delaunay.build ~range points);
    op "mst-build" (fun () -> Topo.Euclidean_mst.build points);
    op "conflict-build" (fun () ->
        Interference.Conflict.build (Interference.Model.make ~delta:0.5) ~points overlay);
    op "dijkstra-sssp" (fun () -> Graphs.Dijkstra.run overlay ~cost:Graphs.Cost.length ~src:0);
    op "energy-stretch" (fun () ->
        Graphs.Stretch.over_base_edges ~sub:overlay ~base:b.Pipeline.gstar
          ~cost:(Graphs.Cost.energy ~kappa:2.) ());
    op "engine-1000-steps" (fun () ->
        let config =
          { Routing.Workload.horizon = 1000; attempts = 500; slack = 12; interference_free = false }
        in
        let w =
          Routing.Workload.flows config ~rng:(Prng.create 5) ~graph:overlay
            ~cost:Graphs.Cost.length ~num_flows:2
        in
        Routing.Engine.run_mac_given ~graph:overlay ~cost:Graphs.Cost.length ~params:routing_params
          w);
    op "routing-csma-2500-steps-n512" (fun () ->
        let b, w, _ = Lazy.force routing_fixture in
        let mac = Mac_protocols.Mac.csma ~rng:(Prng.create 7) b.Pipeline.conflict in
        Routing.Engine.run_with_mac ~cooldown:500 ~collisions:b.Pipeline.conflict
          ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length ~params:routing_params ~mac w);
    op "routing-pad-2500-steps-n512" (fun () ->
        let b, _, wq = Lazy.force routing_fixture in
        Routing.Engine.run_mac_given ~cooldown:500 ~pad:b.Pipeline.conflict
          ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length ~params:routing_params wq);
  ]

let run () =
  Common.header "B1: micro-benchmarks (warm-up, then min of 2 timed runs)";
  let rows = List.map (fun (name, f) -> (name, 1e9 *. Common.time_s f)) (ops ()) in
  let t =
    Util.Table.create
      [ ("operation (n = 256 unless noted)", Util.Table.Left); ("time per run", Util.Table.Right) ]
  in
  let fmt_time ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  (* Metrics in [ops ()] order, so b1's member order is the same in every
     run; the table lists the fastest first. *)
  List.iter (fun (name, ns) -> Common.record_float ("ns_per_run:" ^ name) ns) rows;
  List.iter
    (fun (name, ns) -> Util.Table.add_row t [ name; fmt_time ns ])
    (List.sort (fun (_, a) (_, b) -> Float.compare a b) rows);
  Util.Table.print t
