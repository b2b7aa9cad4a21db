type result = {
  dist : float array;
  pred : int array;
  pred_edge : int array;
}

let run_internal g ~cost ~src ~stop_at =
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.run: source out of range";
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let pred_edge = Array.make n (-1) in
  let settled = Array.make n false in
  let q = Adhoc_util.Pqueue.create () in
  dist.(src) <- 0.;
  Adhoc_util.Pqueue.push q 0. src;
  let quit = ref false in
  while (not !quit) && not (Adhoc_util.Pqueue.is_empty q) do
    let d, u = Adhoc_util.Pqueue.pop_exn q in
    if not settled.(u) then begin
      settled.(u) <- true;
      if stop_at = u then quit := true
      else
        Graph.iter_neighbors g u (fun v id ->
            if not settled.(v) then begin
              let nd = d +. cost (Graph.length g id) in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                pred.(v) <- u;
                pred_edge.(v) <- id;
                Adhoc_util.Pqueue.push q nd v
              end
            end)
    end
  done;
  { dist; pred; pred_edge }

let run g ~cost ~src = run_internal g ~cost ~src ~stop_at:(-1)

let run_to g ~cost ~src ~dst = run_internal g ~cost ~src ~stop_at:dst

let distance g ~cost u v = (run_to g ~cost ~src:u ~dst:v).dist.(v)

let path r dst =
  if r.dist.(dst) = infinity then None
  else begin
    let rec walk acc v = if r.pred.(v) = -1 then v :: acc else walk (v :: acc) r.pred.(v) in
    Some (walk [] dst)
  end

let path_edges r dst =
  if r.dist.(dst) = infinity then None
  else begin
    let rec walk acc v =
      if r.pred.(v) = -1 then acc else walk (r.pred_edge.(v) :: acc) r.pred.(v)
    in
    Some (walk [] dst)
  end
