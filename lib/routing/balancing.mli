(** The (T, γ)-balancing rule (paper Section 3.2).

    Across an edge [(v, w)] of cost [c], the algorithm finds the destination
    [d] maximizing [h_{v,d} − h_{w,d} − γ·c] and sends one packet of [d]
    from [v] to [w] when that gain exceeds the threshold [T].  Theorem 3.1
    makes it [(1−ε)]-throughput-competitive with buffer factor [O(L̄/ε)] and
    cost factor [O(1/ε)] once [T >= B + 2(δ−1)] and
    [γ >= (T+B+δ)·L̄/C̄]. *)

type params = {
  threshold : float;  (** T *)
  gamma : float;  (** γ, the cost weighting *)
  capacity : int;  (** H, the buffer size of the online algorithm *)
}

val params :
  threshold:float -> gamma:float -> capacity:int -> params
(** Validates [threshold >= 0.], [gamma >= 0.], [capacity >= 1]. *)

val best_into :
  Buffers.Sparse.t ->
  Buffers.Sparse.t ->
  params ->
  costs:float array ->
  edge:int ->
  src:int ->
  dst:int ->
  dests:int array ->
  gains:float array ->
  int ->
  unit
(** [best_into q seen p ~costs ~edge ~src ~dst ~dests ~gains slot] is
    the best destination for the directed send [src → dst] over an edge
    of cost [costs.(edge)]: the [d] of [src]'s row of the live heights
    [q] ({!Buffers.heights}) that maximizes
    [q(src, d) − seen(dst, d) − γ·cost], when that gain exceeds the
    threshold.  [seen] holds the heights [src] believes [dst] has: [q]
    itself, or §3.2's advertised heights.  Ties go to the lower
    destination index.  The result goes into the caller's arrays:
    [dests.(slot)] gets the chosen destination, or [-1] when no gain
    exceeds the threshold, and [gains.(slot)] its gain.  It walks [src]'s
    row of [q] and [dst]'s row of [seen] together, both ascending by
    destination, reading them as fields, and allocates nothing, so the
    step kernel calls it in its loop. *)

(** Deriving the paper's parameter settings from an optimal schedule's
    characteristics. *)
module Derive : sig
  val theorem_3_1 :
    opt_buffer:int -> opt_avg_hops:float -> opt_avg_cost:float -> delta:int -> epsilon:float -> params
  (** Scenario 1 (MAC given): [T = B + 2(δ−1)], [γ = (T+B+δ)·L̄/C̄],
      [H = B·(1 + 2(1+(T+δ)/B)·L̄/ε)], rounded up. *)

  val theorem_3_3 :
    opt_buffer:int -> opt_avg_hops:float -> opt_avg_cost:float -> epsilon:float -> params
  (** Scenario 2 (MAC not given, δ = 1): [T = 2B + 1],
      [γ = (T+B)·L̄/C̄], [H = B·(1 + 2(1+T/B)·L̄/ε)]. *)
end
