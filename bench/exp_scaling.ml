(* B2: multicore scaling sweep.

   Times the pool-parallelized kernels — ΘALG construction, UDG
   construction and all-pairs stretch — across an n × jobs grid, each
   configuration on its own fixed-size pool, and prints the speedup
   relative to jobs = 1.  Every kernel is bit-identical for every jobs
   value (the qcheck suite pins this), so the sweep also records one
   structural metric per instance (edge counts) that --compare checks
   exactly: any drift across machines or pool sizes is a regression,
   while the "ns_per_run:*" timings only warn.  Timer, pools, instance
   and the profiled pass ("pool.imbalance:*", "gc:*") are Common's,
   shared with B1 and B4.

   The jobs grid is a fixed {1, 2, 4, 8} — never the machine's
   recommended domain count — so the pool.regions / pool.items counters
   in the snapshot are a machine-independent function of the sweep and
   --compare can pin them.

   Speedup expectations are hardware-honest: on a single-core container
   every jobs > 1 row shows ~1x (plus scheduling overhead); the ≥3x
   targets only apply on machines that actually have the cores. *)

open Adhoc
open Common
module Pool = Util.Pool

let theta = Float.pi /. 6.

let jobs_grid = [ 1; 2; 4; 8 ]

(* Construction sizes; from 8192 up the radius is analytic (see
   Common.sweep_instance). *)
let construction_sizes = [ 1024; 4096; 16384; 65536 ]

let run () =
  header "B2: multicore scaling (pool-parallelized kernels, n x jobs)";
  Printf.printf "recommended domain count here: %d (grid is fixed 1/2/4/8)\n\n"
    (Pool.default_jobs ());
  with_pools jobs_grid (fun pools ->
      let t =
        Table.create
          ([ ("kernel", Table.Left); ("n", Table.Right) ]
          @ List.map (fun j -> (Printf.sprintf "jobs=%d" j, Table.Right)) jobs_grid)
      in
      let sweep name n f check =
        let secs = List.map (fun (j, p) -> (j, time_s (fun () -> f p))) pools in
        let base = List.assoc 1 secs in
        let cells =
          List.map
            (fun (j, s) ->
              record_float (Printf.sprintf "ns_per_run:%s/n=%d/jobs=%d" name n j) (s *. 1e9);
              if j = 1 then Printf.sprintf "%.0f ms" (s *. 1e3)
              else Printf.sprintf "%.2fx" (base /. s))
            secs
        in
        List.iter
          (fun (j, p) -> profile ~key:(fun m -> Printf.sprintf "%s:%s/n=%d/jobs=%d" m name n j) p f)
          pools;
        Table.add_row t ((name :: string_of_int n :: cells) : string list);
        (* One structural metric per instance, identical for every jobs
           value and every machine: --compare flags any drift as an
           error. *)
        record_int (Printf.sprintf "edges:%s/n=%d" name n) check
      in
      List.iter
        (fun n ->
          let points, range = sweep_instance n in
          sweep "theta-alg" n
            (fun p -> Topo.Theta_alg.build ~pool:p ~theta ~range points)
            (Graphs.Graph.num_edges (Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta ~range points)));
          sweep "udg" n
            (fun p -> Topo.Udg.build ~pool:p ~range points)
            (Graphs.Graph.num_edges (Topo.Udg.build ~range points)))
        construction_sizes;
      List.iter
        (fun n ->
          let points, range = sweep_instance n in
          let gstar = Topo.Udg.build ~range points in
          let sub = Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta ~range points) in
          let cost = Graphs.Cost.energy ~kappa:2. in
          sweep "stretch" n
            (fun p -> Graphs.Stretch.over_base_edges ~pool:p ~sub ~base:gstar ~cost ())
            (Graphs.Graph.num_edges gstar))
        [ 256; 1024 ];
      Table.print t;
      print_endline "cells: jobs=1 wall-clock, then speedup vs jobs=1 (same pool-built output).")
