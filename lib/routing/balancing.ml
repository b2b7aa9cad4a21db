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

(* The one argmax.  It walks [src]'s live row and [dst]'s row of [seen]
   together, both ascending by destination, so each receiver height is
   one step of a second cursor instead of a binary search.  Destinations
   are visited in ascending order and only strict gain improvements are
   kept, so ties go to the smaller destination index (a qcheck property
   pins this against a brute-force argmax).  The rows are read as fields
   and the cost from [costs.(edge)], and the result is written to
   [dests.(slot)] and [gains.(slot)], so the loop calls nothing, no float
   crosses a call boxed and nothing is allocated. *)
let best_into (q : Buffers.Sparse.t) (seen : Buffers.Sparse.t) p ~costs ~edge ~src ~dst ~dests
    ~gains slot =
  let penalty = p.gamma *. costs.(edge) and threshold = p.threshold in
  let keys = q.key.(src) and hs = q.value.(src) in
  let seen_keys = seen.key.(dst) and seen_hs = seen.value.(dst) and seen_len = seen.len.(dst) in
  let j = ref 0 in
  let best_dest = ref (-1) and best_gain = ref neg_infinity in
  for i = 0 to q.len.(src) - 1 do
    let d = keys.(i) in
    while !j < seen_len && seen_keys.(!j) < d do
      incr j
    done;
    let h_seen = if !j < seen_len && seen_keys.(!j) = d then seen_hs.(!j) else 0 in
    let gain = float_of_int (hs.(i) - h_seen) -. penalty in
    if gain > threshold && gain > !best_gain then begin
      best_dest := d;
      best_gain := gain
    end
  done;
  dests.(slot) <- !best_dest;
  gains.(slot) <- !best_gain

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
