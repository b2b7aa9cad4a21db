type packet = {
  src : int;
  dst : int;
  injected_at : int;
  mutable arrived : int;
  mutable waited : int;
  mutable delivered_at : int;
  mutable hops : int;
  mutable energy : float;
}

let delivered p = p.delivered_at >= 0

let latency p =
  if p.delivered_at < 0 then invalid_arg "Mirror.latency: packet not delivered";
  p.delivered_at - p.injected_at

type counters = {
  injected : int;
  dropped : int;
  delivered : int;
  self_deliveries : int;
  sends : int;
  collisions : int;
  epochs : int;
  height_adverts : int;
  energy : float;
  buffered : int;
  anomalies : int;
}

type t = {
  queues : (int * int, packet Queue.t) Hashtbl.t;  (* keyed lookup only, never iterated *)
  mutable pending : packet option;  (* an admitted injection, not yet committed *)
  mutable c : counters;
}

let create () =
  {
    queues = Hashtbl.create 64;
    pending = None;
    c =
      {
        injected = 0;
        dropped = 0;
        delivered = 0;
        self_deliveries = 0;
        sends = 0;
        collisions = 0;
        epochs = 0;
        height_adverts = 0;
        energy = 0.;
        buffered = 0;
        anomalies = 0;
      };
  }

let counters t = t.c

let queue_of t v d =
  match Hashtbl.find_opt t.queues (v, d) with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.queues (v, d) q;
      q

(* [next] is the event after the pending injection; [None] at the end of
   the stream. *)
let resolve t next =
  match t.pending with
  | None -> None
  | Some p -> (
      t.pending <- None;
      let c = t.c in
      match next with
      | Some (Event.Deliver { step; dst; self = true }) when step = p.injected_at && dst = p.dst
        ->
          t.c <- { c with delivered = c.delivered + 1; self_deliveries = c.self_deliveries + 1 };
          None
      | _ ->
          Queue.push p (queue_of t p.src p.dst);
          t.c <- { c with buffered = c.buffered + 1 };
          Some p)

let settle t e = resolve t (Some e)

let flush t = resolve t None

let feed t e =
  ignore (settle t e);
  let c = t.c in
  match e with
  | Event.Inject { step; src; dst; admitted } ->
      if admitted then begin
        t.c <- { c with injected = c.injected + 1 };
        t.pending <-
          Some
            {
              src;
              dst;
              injected_at = step;
              arrived = step;
              waited = 0;
              delivered_at = -1;
              hops = 0;
              energy = 0.;
            }
      end
      else t.c <- { c with dropped = c.dropped + 1 };
      None
  | Event.Send { step; src; dst; dest; cost; outcome; _ } -> (
      let c = { c with sends = c.sends + 1; energy = c.energy +. cost } in
      match Queue.take_opt (queue_of t src dest) with
      | None ->
          t.c <- { c with anomalies = c.anomalies + 1 };
          None
      | Some p ->
          p.hops <- p.hops + 1;
          p.energy <- p.energy +. cost;
          p.waited <- step - p.arrived;
          p.arrived <- step;
          (match outcome with
          | Event.Delivered ->
              p.delivered_at <- step;
              t.c <- { c with delivered = c.delivered + 1; buffered = c.buffered - 1 }
          | Event.Moved ->
              Queue.push p (queue_of t dst dest);
              t.c <- (if dst = dest then { c with anomalies = c.anomalies + 1 } else c));
          Some p)
  | Event.Collide { cost; _ } ->
      t.c <- { c with collisions = c.collisions + 1; energy = c.energy +. cost };
      None
  | Event.Deliver _ -> None
  | Event.Epoch_change _ ->
      t.c <- { c with epochs = c.epochs + 1 };
      None
  | Event.Height_advert _ ->
      t.c <- { c with height_adverts = c.height_adverts + 1 };
      None
