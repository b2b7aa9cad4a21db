type violation = { index : int; reason : string }

let max_kept = 64

type t = {
  is_active : (step:int -> edge:int -> bool) option;
  endpoints : (int -> int * int) option;
  absorbs : node:int -> dest:int -> bool;  (* the run's absorption rule *)
  heights : (int * int, int) Hashtbl.t;  (* (node, dest) -> packets buffered *)
  mutable buffered : int;
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable sends : int;
  mutable failed_sends : int;
  mutable energy : float;  (* summed in event order, like the engines *)
  mutable last_step : int;
  mutable checked : int;  (* events fed so far *)
  (* Deliveries owed: +1 on Send Delivered / self-absorbed Inject, -1 on
     Deliver.  Must stay in {0, 1} and only pass through 1 briefly. *)
  mutable pending_deliver : int;
  mutable count : int;
  mutable kept : violation list;  (* newest first *)
}

let at_destination ~node ~dest = node = dest

let create ?is_active ?endpoints ?(absorbs = at_destination) () =
  {
    is_active;
    endpoints;
    absorbs;
    heights = Hashtbl.create 64;
    buffered = 0;
    injected = 0;
    dropped = 0;
    delivered = 0;
    sends = 0;
    failed_sends = 0;
    energy = 0.;
    last_step = min_int;
    checked = 0;
    pending_deliver = 0;
    count = 0;
    kept = [];
  }

let violate t index reason =
  t.count <- t.count + 1;
  if t.count <= max_kept then t.kept <- { index; reason } :: t.kept

let height t v d = match Hashtbl.find_opt t.heights (v, d) with Some h -> h | None -> 0

let bump t v d delta =
  let h = height t v d + delta in
  Hashtbl.replace t.heights (v, d) h;
  t.buffered <- t.buffered + delta;
  h

(* A delivering event may not occur while another delivery is still owed
   its [Deliver] — that would mean the log dropped one. *)
let open_delivery t i what =
  if t.pending_deliver > 0 then
    violate t i (what ^ " while an earlier delivery still lacks its Deliver event");
  t.pending_deliver <- t.pending_deliver + 1

let check_edge t i ~step ~edge ~src ~dst =
  (match t.is_active with
  | Some f when not (f ~step ~edge) ->
      violate t i (Printf.sprintf "send over edge %d, inactive at step %d" edge step)
  | _ -> ());
  match t.endpoints with
  | Some f ->
      let u, v = f edge in
      if not ((u = src && v = dst) || (u = dst && v = src)) then
        violate t i
          (Printf.sprintf "send %d->%d does not match edge %d endpoints (%d, %d)" src dst
             edge u v)
  | None -> ()

let check t i (e : Event.t) =
  t.checked <- t.checked + 1;
  let step = Event.step e in
  if step < t.last_step then
    violate t i (Printf.sprintf "step %d after step %d (non-monotone)" step t.last_step);
  t.last_step <- max t.last_step step;
  match e with
  | Event.Inject { src; dst; admitted; _ } ->
      if admitted then begin
        t.injected <- t.injected + 1;
        if t.absorbs ~node:src ~dest:dst then open_delivery t i "self-absorbed injection"
        else ignore (bump t src dst 1)
      end
      else t.dropped <- t.dropped + 1
  | Event.Send { step; edge; src; dst; dest; cost; outcome } ->
      check_edge t i ~step ~edge ~src ~dst;
      t.sends <- t.sends + 1;
      t.energy <- t.energy +. cost;
      if height t src dest <= 0 then
        violate t i
          (Printf.sprintf "send of a packet for %d from node %d, whose buffer is empty" dest
             src)
      else ignore (bump t src dest (-1));
      (match outcome with
      | Event.Delivered ->
          if not (t.absorbs ~node:dst ~dest) then
            violate t i
              (Printf.sprintf "outcome delivered but dst %d is not the destination %d" dst
                 dest);
          open_delivery t i "delivering send"
      | Event.Moved ->
          if t.absorbs ~node:dst ~dest then
            violate t i
              (Printf.sprintf "outcome moved but dst %d is the destination (should deliver)"
                 dst);
          ignore (bump t dst dest 1))
  | Event.Collide { step; edge; src; dst; dest; cost } ->
      check_edge t i ~step ~edge ~src ~dst;
      t.sends <- t.sends + 1;
      t.failed_sends <- t.failed_sends + 1;
      t.energy <- t.energy +. cost;
      if height t src dest <= 0 then
        violate t i
          (Printf.sprintf "collision of a packet for %d from node %d, whose buffer is empty"
             dest src)
  | Event.Deliver _ ->
      t.delivered <- t.delivered + 1;
      if t.pending_deliver = 0 then
        violate t i "Deliver with no delivering send or self-absorbed injection"
      else t.pending_deliver <- t.pending_deliver - 1
  | Event.Epoch_change _ | Event.Height_advert _ -> ()

let attach t log = Event.add_observer log (fun i e -> check t i e)

let final_check t ~injected ~dropped ~delivered ~sends ~failed_sends ~total_cost ~remaining
    =
  let i = t.checked in
  if t.pending_deliver > 0 then violate t i "run ended with a delivery lacking its Deliver event";
  let want name expect got =
    if expect <> got then
      violate t i (Printf.sprintf "%s: stats say %d, events say %d" name expect got)
  in
  want "injected" injected t.injected;
  want "dropped" dropped t.dropped;
  want "delivered" delivered t.delivered;
  want "sends" sends t.sends;
  want "failed_sends" failed_sends t.failed_sends;
  want "remaining (buffered)" remaining t.buffered;
  if not (Int64.equal (Int64.bits_of_float total_cost) (Int64.bits_of_float t.energy)) then
    violate t i
      (Printf.sprintf "total_cost: stats say %.17g, events sum to %.17g" total_cost t.energy)

let run ?is_active ?endpoints ?absorbs events =
  let t = create ?is_active ?endpoints ?absorbs () in
  Array.iteri (fun i e -> check t i e) events;
  List.rev t.kept

let violation_count t = t.count

let violations t = List.rev t.kept

let ok t = t.count = 0

let report t =
  if ok t then Printf.sprintf "invariants ok (%d events checked)" t.checked
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "%d invariant violation%s (%d events checked):\n" t.count
      (if t.count = 1 then "" else "s")
      t.checked;
    List.iter
      (fun v -> Printf.bprintf b "  event %d: %s\n" v.index v.reason)
      (violations t);
    if t.count > max_kept then
      Printf.bprintf b "  ... and %d more (only the first %d are kept)\n"
        (t.count - max_kept) max_kept;
    Buffer.contents b
  end
