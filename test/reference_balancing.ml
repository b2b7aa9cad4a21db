(* The balancing rule one edge direction at a time, as an optional
   record: wrappers over Balancing.best_into, which the step kernel calls
   on flat per-edge arrays.  The tests check the argmax through them,
   against a brute-force scan of the full height matrix and against the
   requests the engine hands its MAC. *)

module Balancing = Adhoc_routing.Balancing
module Buffers = Adhoc_routing.Buffers

type decision = {
  src : int;
  dst : int;
  dest : int;  (** destination whose packet moves *)
  gain : float;  (** [h_src − h_dst − γ·cost], guaranteed > threshold *)
}

(* [best_toward] with [dst]'s heights read from [seen] instead of the live
   buffers: the heights [src] believes its neighbour has (§3.2's
   advertised heights). *)
let best_seen buffers seen p ~cost ~src ~dst =
  let dests = [| -1 |] and gains = [| neg_infinity |] in
  Balancing.best_into (Buffers.heights buffers) seen p ~costs:[| cost |] ~edge:0 ~src ~dst ~dests
    ~gains 0;
  if dests.(0) < 0 then None else Some { src; dst; dest = dests.(0); gain = gains.(0) }

(* Best destination for the directed send [src → dst], or [None] when no
   gain exceeds the threshold; ties to the lower destination index. *)
let best_toward buffers p ~cost ~src ~dst =
  best_seen buffers (Buffers.heights buffers) p ~cost ~src ~dst

(* The better of the two directions (ties prefer [u → v]). *)
let best_either buffers p ~cost ~u ~v =
  let fwd = best_toward buffers p ~cost ~src:u ~dst:v in
  let bwd = best_toward buffers p ~cost ~src:v ~dst:u in
  match (fwd, bwd) with
  | None, d | d, None -> d
  | Some f, Some b -> if b.gain > f.gain then Some b else Some f
