(* B4: routing-throughput scaling sweep.

   Times the decide-parallel / apply-sequential routing step loop
   (Engine.run over a single ΘALG epoch) across an n × jobs grid,
   each configuration on its own fixed-size pool, and reports the
   headline rates steps_per_sec and decisions_per_sec (a "decision" is
   one active-edge evaluation — the unit the decision phase fans out on
   the pool).  Both rates are wall-clock derived, so --compare treats
   them with the timing tolerance; the structural metrics
   (injected / delivered / sends per n, the decision count, and the
   bitident flags) are exact and machine-independent, so any drift
   across machines or pool sizes is a regression.

   The sweep is also the acceptance harness for the parallel decision
   phase: for every n it replays the run with an event log and a live
   recorder under each jobs value and requires the routing stats, the
   adhoc-events/1 JSONL bytes and the adhoc-live/1 JSONL bytes to be
   identical to the jobs = 1 reference.  A mismatch aborts the bench —
   bit-identity is a contract here, not a statistic.

   Timer, pools, instance and the profiled pass ("pool.imbalance:*",
   "gc:*") are Common's, shared with B1 and B2.

   Speedup expectations are hardware-honest: the decision phase is a
   fraction of each step (apply stays sequential by design), so on a
   single-core container every jobs > 1 row shows ~1x. *)

open Adhoc
open Common
module Pool = Util.Pool
module Conflict = Interference.Conflict
module Balancing = Routing.Balancing
module Engine = Routing.Engine

let theta = Float.pi /. 6.

let sizes = [ 1024; 4096; 16384 ]
let jobs_grid = [ 1; 2; 4 ]
let steps = 240

let params = Balancing.params ~threshold:1.0 ~gamma:0.05 ~capacity:8
let cost = Graphs.Cost.hops

type instance = {
  epoch : Engine.phase;
  injections : int -> (int * int) list;
  decisions : int;  (** active-edge evaluations over the whole horizon *)
}

let instance n =
  let points, range = sweep_instance n in
  let overlay = Topo.Theta_alg.overlay (Topo.Theta_alg.build ~theta ~range points) in
  let conflict = Conflict.build (Interference.Model.make ~delta:0.5) ~points overlay in
  (* Seeded injections, pregenerated so every timed run replays the same
     workload: a front-loaded burst for the first half of the horizon,
     then a drain phase. *)
  let irng = Prng.create (4242 + n) in
  let per_step = max 4 (n / 256) in
  let burst = steps / 2 in
  let table =
    Array.init steps (fun t ->
        if t >= burst then []
        else List.init per_step (fun _ ->
            let src = Prng.int irng n in
            let dst = Prng.int irng n in
            (src, dst)))
  in
  let injections t = if t >= 0 && t < steps then table.(t) else [] in
  (* The decision phase evaluates every edge of colour class (t mod k)
     each step, so the total count is a pure function of the coloring. *)
  let colors, k = Conflict.greedy_coloring conflict in
  let class_size = Array.make (max k 1) 0 in
  Array.iter (fun c -> class_size.(c) <- class_size.(c) + 1) colors;
  let decisions = ref 0 in
  for t = 0 to steps - 1 do
    if k > 0 then decisions := !decisions + class_size.(t mod k)
  done;
  { epoch = { Engine.graph = overlay; cost; activation = Rounds (Some conflict); steps;
              epoch = Some 0 };
    injections; decisions = !decisions }

let route ?obs ?pool inst =
  Engine.run ?obs ?pool ~who:"b4" ~params ~heights:Live ~absorb:Destination
    ~injections:inst.injections [ inst.epoch ]

let slurp file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* One replay with an event log and a live recorder attached; returns the
   stats plus the two streams' JSONL bytes (via a scratch file — the
   writers are out_channel based). *)
let streams ?pool inst =
  let events = Obs.Event.create () in
  let live = Obs.Live.create ~window:50 () in
  Obs.Live.attach live events;
  let sink = Obs.create ~events () in
  let stats = route ~obs:sink ?pool inst in
  let tmp = Filename.temp_file "adhoc-b4" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Obs.Event.save_jsonl events tmp;
      let event_bytes = slurp tmp in
      Obs.Live.save_jsonl live tmp;
      let live_bytes = slurp tmp in
      (stats, event_bytes, live_bytes))

let run () =
  header "B4: routing-throughput scaling (parallel decision phase, n x jobs)";
  Printf.printf "recommended domain count here: %d (grid is fixed 1/2/4)\n\n"
    (Pool.default_jobs ());
  with_pools jobs_grid (fun pools ->
      let t =
        Table.create
          ([ ("n", Table.Right); ("decisions", Table.Right) ]
          @ List.map (fun j -> (Printf.sprintf "jobs=%d" j, Table.Right)) jobs_grid)
      in
      List.iter
        (fun n ->
          let inst = instance n in
          let route_on p = route ~pool:p inst in
          let secs = List.map (fun (j, p) -> (j, time_s (fun () -> route_on p))) pools in
          let base = List.assoc 1 secs in
          let cells =
            List.map
              (fun (j, s) ->
                record_float
                  (Printf.sprintf "steps_per_sec:b4/n=%d/jobs=%d" n j)
                  (float_of_int steps /. s);
                record_float
                  (Printf.sprintf "decisions_per_sec:b4/n=%d/jobs=%d" n j)
                  (float_of_int inst.decisions /. s);
                if j = 1 then Printf.sprintf "%.0f steps/s" (float_of_int steps /. s)
                else Printf.sprintf "%.2fx" (base /. s))
              secs
          in
          List.iter
            (fun (j, p) ->
              profile ~key:(fun m -> Printf.sprintf "%s:b4/n=%d/jobs=%d" m n j) p route_on)
            pools;
          (* Bit-identity contract: stats, event bytes and live bytes must
             match the jobs = 1 reference for every pool size. *)
          let ref_stats, ref_events, ref_live = streams inst in
          List.iter
            (fun (j, p) ->
              let stats, events, live = streams ~pool:p inst in
              if stats <> ref_stats then
                failwith (Printf.sprintf "b4: stats diverge at n=%d jobs=%d" n j);
              if not (String.equal events ref_events) then
                failwith (Printf.sprintf "b4: event log diverges at n=%d jobs=%d" n j);
              if not (String.equal live ref_live) then
                failwith (Printf.sprintf "b4: live stream diverges at n=%d jobs=%d" n j))
            pools;
          record_int (Printf.sprintf "bitident:b4/n=%d" n) 1;
          (* Structural pins, identical for every jobs value and machine. *)
          record_int (Printf.sprintf "decisions:b4/n=%d" n) inst.decisions;
          record_int (Printf.sprintf "injected:b4/n=%d" n) ref_stats.Routing.Engine.injected;
          record_int (Printf.sprintf "delivered:b4/n=%d" n) ref_stats.Routing.Engine.delivered;
          record_int (Printf.sprintf "sends:b4/n=%d" n) ref_stats.Routing.Engine.sends;
          Table.add_row t
            ((string_of_int n :: string_of_int inst.decisions :: cells) : string list))
        sizes;
      Table.print t;
      print_endline
        "cells: jobs=1 step rate, then speedup vs jobs=1 (bit-identical streams).")
