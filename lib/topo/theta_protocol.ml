open Adhoc_geom
module Graph = Adhoc_graph.Graph
module Pool = Adhoc_util.Pool

type stats = {
  position_msgs : int;
  neighborhood_msgs : int;
  connection_msgs : int;
}

(* Mailboxes hold (sender, payload) pairs; each round is: everyone sends,
   then everyone processes its mailbox.  Nodes only ever use information
   they received in a message — the point of the exercise.

   Every per-sector winner below is the argmin of a strict total order
   ((distance, index) or (projection, index)), so the mailbox processing
   order is irrelevant to the result.  That is what lets round-1 inboxes
   come from a spatial grid (symmetric range: v hears u iff u hears v) —
   tile-local under [Shard.map_nodes] — and lets the per-node rounds run
   on a pool; the message *sends* that feed later rounds are replayed
   sequentially in the original node order, so transcripts, stats and
   edge insertion order are bit-identical. *)

type position_msg = { sender : int; pos : Point.t }

let run ?pool ~theta ~range points =
  if not (theta > 0. && Float.is_finite theta) then invalid_arg "Theta_protocol.run: bad theta";
  let n = Array.length points in
  let sectors = Sector.count theta in

  (* Round 1: position broadcasts at maximum power (range D).  Node u's
     inbox is every v ≠ u within range; gathered receiver-side. *)
  let position_msgs = n in

  (* Each node u computes N(u) from its received positions only. *)
  let closer_from_inbox my_pos a apos b bpos =
    let c = Float.compare (Point.dist2 my_pos apos) (Point.dist2 my_pos bpos) in
    c < 0 || (c = 0 && a < b)
  in
  let select u iter_candidates =
    let best = Array.make sectors (-1) in
    let best_pos = Array.make sectors Point.origin in
    iter_candidates (fun v ->
        if v <> u && Point.dist points.(u) points.(v) <= range then begin
          let ({ sender; pos } : position_msg) = { sender = v; pos = points.(v) } in
          let s = Sector.index ~theta ~apex:points.(u) pos in
          if best.(s) = -1 || closer_from_inbox points.(u) sender pos best.(s) best_pos.(s)
          then begin
            best.(s) <- sender;
            best_pos.(s) <- pos
          end
        end);
    let acc = ref [] in
    for s = sectors - 1 downto 0 do
      if best.(s) >= 0 then acc := best.(s) :: !acc
    done;
    !acc
  in
  let selections =
    if n > 1 && Float.is_finite range && range > 0. then begin
      (* Query slightly wide: the grid pre-filters on squared distance;
         the exact range test in [select] decides. *)
      let query = range *. (1. +. 1e-9) in
      Shard.map_nodes ?pool ~label:"theta-protocol/select" ~range points ~f:(fun grid u ->
          select u (Spatial_grid.iter_within grid points.(u) query))
    end
    else
      Pool.opt_init pool ~label:"theta-protocol/select" n (fun u ->
          select u (fun consider ->
              for v = 0 to n - 1 do
                consider v
              done))
  in

  (* Round 2: u tells each v ∈ N(u) that u selected it.  Sequential replay
     in node order keeps the mailbox transcript identical. *)
  let selector_boxes = Array.make n [] in
  let neighborhood_msgs = ref 0 in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        incr neighborhood_msgs;
        selector_boxes.(v) <- u :: selector_boxes.(v))
      selections.(u)
  done;

  (* Round 3: u admits the nearest selector per sector and sends it a
     connection message. *)
  let admit u =
    let best = Array.make sectors (-1) in
    List.iter
      (fun v ->
        let s = Sector.index ~theta ~apex:points.(u) points.(v) in
        if best.(s) = -1 || Yao.closer points u v best.(s) then best.(s) <- v)
      selector_boxes.(u);
    best
  in
  let admitted = Pool.opt_init pool ~label:"theta-protocol/admit" n admit in
  let connection_boxes = Array.make n [] in
  let connection_msgs = ref 0 in
  for u = 0 to n - 1 do
    let best = admitted.(u) in
    for s = 0 to sectors - 1 do
      if best.(s) >= 0 then begin
        incr connection_msgs;
        connection_boxes.(best.(s)) <- u :: connection_boxes.(best.(s))
      end
    done
  done;

  (* An edge exists for every pair that exchanged a connection message. *)
  let b = Graph.Builder.create n in
  for v = 0 to n - 1 do
    List.iter
      (fun u -> Graph.Builder.add_edge b u v (Point.dist points.(u) points.(v)))
      connection_boxes.(v)
  done;
  ( Graph.Builder.build b,
    {
      position_msgs;
      neighborhood_msgs = !neighborhood_msgs;
      connection_msgs = !connection_msgs;
    } )
