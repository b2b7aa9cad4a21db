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

type decision = {
  src : int;
  dst : int;
  dest : int;  (** destination whose packet moves *)
  gain : float;  (** [h_src − h_dst − γ·cost], guaranteed > threshold *)
}

val best_toward : Buffers.t -> params -> cost:float -> src:int -> dst:int -> decision option
(** Best destination for the directed send [src → dst], or [None] when no
    destination's gain exceeds the threshold.  O(#non-empty buffers at
    [src]).  Ties broken by the lower destination index. *)

val best_seen :
  Buffers.t -> Buffers.Sparse.t -> params -> cost:float -> src:int -> dst:int -> decision option
(** {!best_toward} with [dst]'s heights read from the given rows instead
    of the live buffers: the heights [src] believes its neighbour has
    (§3.2's advertised heights).  [best_toward b] is
    [best_seen b (Buffers.heights b)]. *)

val best_either : Buffers.t -> params -> cost:float -> u:int -> v:int -> decision option
(** The better of the two directions (ties prefer [u → v]). *)

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
    {!best_seen} on the live height rows [q] ({!Buffers.heights}) with
    cost [costs.(edge)], written into the caller's arrays:
    [dests.(slot)] gets the chosen destination, or [-1] for [None], and
    [gains.(slot)] its gain.  It is the one argmax behind every function
    above.  It walks [src]'s row of [q] and [dst]'s row of [seen]
    together, both ascending by destination, reading them as fields, and
    allocates nothing, so the engines call it in their step loop. *)

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
