module Graph = Adhoc_graph.Graph

type stats = {
  base : Engine.stats;
  control_messages : int;
  full_exchange_messages : int;
}

let run_mac_given ?(cooldown = 0) ?obs ?pool ?on_step ?pad ~quantum ~graph ~cost ~params
    (w : Workload.t) =
  if quantum < 0 then invalid_arg "Quantized_engine.run_mac_given: negative quantum";
  let adverts = ref 0 in
  let steps = w.Workload.horizon + cooldown in
  let base =
    Engine.run ?obs ?pool ?on_step ~who:"Quantized_engine.run_mac_given" ~params
      ~heights:(Advertised { quantum; adverts }) ~absorb:Destination
      ~injections:(fun t -> if t < w.Workload.horizon then w.Workload.injections.(t) else [])
      [ { Engine.graph; cost; activation = Given (w, pad); steps; epoch = None } ]
  in
  (match obs with
  | None -> ()
  | Some o ->
      Adhoc_obs.Metrics.add
        (Adhoc_obs.Metrics.counter o.Adhoc_obs.metrics "quantized.control_messages")
        !adverts);
  { base; control_messages = !adverts; full_exchange_messages = steps * Graph.n graph }
