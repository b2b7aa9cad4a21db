type params = {
  threshold : float;
  gamma : float;
  capacity : int;
}

let params ~threshold ~gamma ~capacity =
  if threshold < 0. then invalid_arg "Balancing.params: negative threshold";
  if gamma < 0. then invalid_arg "Balancing.params: negative gamma";
  if capacity < 1 then invalid_arg "Balancing.params: capacity must be at least 1";
  { threshold; gamma; capacity }

type decision = {
  src : int;
  dst : int;
  dest : int;
  gain : float;
}

(* [Buffers.iter_nonzero] visits destinations in ascending order, so
   keeping only strict gain improvements prefers the smaller destination
   index on ties — the same order-independent argmax the old hash-order
   scan tie-broke by hand (a qcheck property pins this).  Tracked with
   mutable locals so the scan allocates exactly one decision record. *)
let best_seen buffers seen p ~cost ~src ~dst =
  let penalty = p.gamma *. cost in
  let best_dest = ref (-1) in
  let best_gain = ref neg_infinity in
  Buffers.iter_nonzero buffers src (fun d h_src ->
      let gain = float_of_int (h_src - Buffers.Sparse.get seen dst d) -. penalty in
      if gain > p.threshold && gain > !best_gain then begin
        best_dest := d;
        best_gain := gain
      end);
  if !best_dest < 0 then None else Some { src; dst; dest = !best_dest; gain = !best_gain }

let best_toward buffers p ~cost ~src ~dst =
  best_seen buffers (Buffers.heights buffers) p ~cost ~src ~dst

let best_either buffers p ~cost ~u ~v =
  let fwd = best_toward buffers p ~cost ~src:u ~dst:v in
  let bwd = best_toward buffers p ~cost ~src:v ~dst:u in
  match (fwd, bwd) with
  | None, d | d, None -> d
  | Some f, Some b -> if b.gain > f.gain then Some b else Some f

let apply buffers d =
  Buffers.remove buffers d.src d.dest;
  if d.dst = d.dest then `Delivered
  else begin
    Buffers.force_add buffers d.dst d.dest;
    `Moved
  end

module Derive = struct
  let capacity_of ~b ~t ~delta ~l ~epsilon =
    let bf = float_of_int b in
    let s = 1. +. (2. *. (1. +. ((t +. float_of_int delta) /. bf)) *. l /. epsilon) in
    max (b + 1) (int_of_float (Float.ceil (bf *. s)))

  let theorem_3_1 ~opt_buffer ~opt_avg_hops ~opt_avg_cost ~delta ~epsilon =
    if opt_buffer < 1 then invalid_arg "Derive.theorem_3_1: opt_buffer must be >= 1";
    if epsilon <= 0. || epsilon >= 1. then invalid_arg "Derive.theorem_3_1: epsilon in (0,1)";
    let b = opt_buffer in
    let t = float_of_int (b + (2 * (delta - 1))) in
    let t = Float.max t 0. in
    let gamma =
      if opt_avg_cost <= 0. then 0.
      else (t +. float_of_int b +. float_of_int delta) *. opt_avg_hops /. opt_avg_cost
    in
    {
      threshold = t;
      gamma;
      capacity = capacity_of ~b ~t ~delta ~l:opt_avg_hops ~epsilon;
    }

  let theorem_3_3 ~opt_buffer ~opt_avg_hops ~opt_avg_cost ~epsilon =
    if opt_buffer < 1 then invalid_arg "Derive.theorem_3_3: opt_buffer must be >= 1";
    if epsilon <= 0. || epsilon >= 1. then invalid_arg "Derive.theorem_3_3: epsilon in (0,1)";
    let b = opt_buffer in
    let t = float_of_int ((2 * b) + 1) in
    let gamma =
      if opt_avg_cost <= 0. then 0.
      else (t +. float_of_int b) *. opt_avg_hops /. opt_avg_cost
    in
    {
      threshold = t;
      gamma;
      capacity = capacity_of ~b ~t ~delta:0 ~l:opt_avg_hops ~epsilon;
    }
end
