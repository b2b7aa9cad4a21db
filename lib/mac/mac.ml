module Conflict = Adhoc_interference.Conflict
module Prng = Adhoc_util.Prng

type t = {
  name : string;
  select :
    step:int ->
    edge:int array ->
    sender:int array ->
    benefit:float array ->
    count:int ->
    granted:int array ->
    int;
}

let random_interference ~rng conflict =
  (* I_e is the paper's neighbourhood bound, not |I(e)|: it dominates the
     interference-set size of every edge e interferes with, which is what
     makes Lemma 3.2's 1/2 collision bound hold.  Each edge's coin is
     [Prng.uniform rng < 1 / (2 I_e)], drawn exactly through its
     precomputed integer threshold. *)
  let thresholds =
    Array.map
      (fun b -> Prng.bernoulli_threshold (1. /. (2. *. float_of_int (max 1 b))))
      (Conflict.neighborhood_bounds conflict)
  in
  let select ~step:_ ~edge ~sender:_ ~benefit:_ ~count ~granted =
    let n = ref 0 in
    for i = 0 to count - 1 do
      if Prng.bernoulli rng thresholds.(edge.(i)) then begin
        granted.(!n) <- i;
        incr n
      end
    done;
    !n
  in
  { name = "random-mac"; select }

(* Carrier sense: greedily accept the requests in [order] (indices), each
   iff no already-chosen edge interferes with it.  The edge's conflict row
   is walked against scratch marks over the chosen set, so each candidate
   costs O(|I(e)|) instead of a scan of everything chosen so far. *)
let greedy_accept conflict ~chosen_mark ~edge ~granted order =
  let n = ref 0 in
  for j = 0 to Array.length order - 1 do
    let i = order.(j) in
    let e = edge.(i) in
    if not (Conflict.row_marked conflict chosen_mark e) then begin
      chosen_mark.(e) <- true;
      granted.(!n) <- i;
      incr n
    end
  done;
  for j = 0 to !n - 1 do
    chosen_mark.(edge.(granted.(j))) <- false
  done;
  !n

let csma ~rng conflict =
  let chosen_mark = Array.make (Conflict.num_edges conflict) false in
  let select ~step:_ ~edge ~sender:_ ~benefit:_ ~count ~granted =
    let order = Array.init count Fun.id in
    Prng.shuffle rng order;
    greedy_accept conflict ~chosen_mark ~edge ~granted order
  in
  { name = "csma"; select }

let instrument (obs : Adhoc_obs.sink) mac =
  let requests_c = Adhoc_obs.Metrics.counter obs.metrics ("mac." ^ mac.name ^ ".requests") in
  let granted_c = Adhoc_obs.Metrics.counter obs.metrics ("mac." ^ mac.name ^ ".granted") in
  let label = "mac/" ^ mac.name in
  let select ~step ~edge ~sender ~benefit ~count ~granted =
    let n =
      Adhoc_obs.Span.time obs.spans label (fun () ->
          mac.select ~step ~edge ~sender ~benefit ~count ~granted)
    in
    Adhoc_obs.Metrics.add requests_c count;
    Adhoc_obs.Metrics.add granted_c n;
    n
  in
  { mac with select }
