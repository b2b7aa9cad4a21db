module Graph = Adhoc_graph.Graph
module Conflict = Adhoc_interference.Conflict
module Model = Adhoc_interference.Model

type epoch = {
  graph : Graph.t;
  conflict : Conflict.t;
  steps : int;
}

let epoch_of_points ?(delta = 0.5) ?(theta = Float.pi /. 6.) ?(range_factor = 1.5) ~steps
    points =
  let range = range_factor *. Adhoc_topo.Udg.critical_range points in
  let overlay = Adhoc_topo.Theta_alg.overlay (Adhoc_topo.Theta_alg.build ~theta ~range points) in
  let conflict = Conflict.build (Model.make ~delta) ~points overlay in
  { graph = overlay; conflict; steps }

let run ?obs ?pool ~epochs ~injections ~cost ~params () =
  (match epochs with [] -> invalid_arg "Dynamic_engine.run: no epochs" | _ :: _ -> ());
  (* Buffers persist across epochs; each epoch activates one colour class
     of its own conflict graph per step (an interference-free TDMA MAC).
     The kernel checks that the epochs share a node count. *)
  Engine.run ?obs ?pool ~who:"Dynamic_engine.run" ~params ~heights:Live ~absorb:Destination
    ~injections
    (List.mapi
       (fun i e ->
         {
           Engine.graph = e.graph;
           cost;
           activation = Rounds (Some e.conflict);
           steps = e.steps;
           epoch = Some i;
         })
       epochs)
