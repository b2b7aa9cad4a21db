(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible from an integer seed.  The generator is
    SplitMix64 (Steele, Lea & Flood 2014): a tiny, fast, splittable generator
    with 64-bit state, adequate statistical quality for simulation workloads,
    and no dependence on the runtime's global [Random] state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed].  Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream.  Use it to
    hand sub-seeds to components without coupling their consumption. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform on [0, n-1].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] is uniform on [0, x). *)

val bool : t -> bool

val uniform : t -> float
(** Uniform on [0, 1). *)

val bernoulli_threshold : float -> int
(** [bernoulli_threshold p] is [⌈p·2⁵³⌉], the threshold {!bernoulli}
    compares its draw against.  Requires [0 <= p <= 1]. *)

val bernoulli : t -> int -> bool
(** [bernoulli g (bernoulli_threshold p)] is [uniform g < p], exactly:
    it draws the same 53 bits, leaves [g] in the same state and returns
    the same answer, for every [p] in [[0, 1]].  It compares the bits
    against the integer threshold instead of building the float, so a
    draw allocates nothing. *)

val range : t -> float -> float -> float
(** [range g lo hi] is uniform on [lo, hi). *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box–Muller normal deviate. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate ([rate > 0]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g k n] returns [k] distinct integers drawn
    uniformly from [0, n-1], in random order.  Requires [0 <= k <= n]. *)
