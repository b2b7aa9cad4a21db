(** Fixed-size domain pool: deterministic data-parallel loops over dense
    integer ranges.

    The paper's constructions are per-node-independent, which makes them
    embarrassingly parallel — but this repo's determinism policy (see
    DESIGN.md) demands that results be a function of inputs only, never of
    scheduling.  The pool therefore guarantees {b jobs-invariance}: for
    index-pure bodies (the value computed for index [i] depends only on
    [i] and on state that no other index mutates), every entry point
    produces output {e bit-identical} to the sequential loop, for any
    number of jobs.  Concretely:

    - [0, n) is split into [min jobs n] contiguous chunks whose boundaries
      depend on [(n, jobs)] only — chunk [i] is [[i·n/k, (i+1)·n/k)];
    - each index is evaluated exactly once, by the same code, regardless of
      which domain runs it;
    - {!map_reduce} folds on the calling domain in ascending index order
      (no tree reduction), so even non-associative folds match the
      sequential result exactly;
    - exceptions re-raise deterministically: bodies iterate ascending and
      stop at the first raise, so the exception that surfaces is the one
      raised at the lowest failing index, independent of [jobs].

    A pool holds [jobs - 1] worker domains parked on condition variables;
    regions reuse them (no per-call spawns).  One region runs at a time:
    nested calls — including calls made from inside a region's body — and
    calls after {!shutdown} transparently run inline on the calling
    domain, which is bit-identical by the contract above.

    This is the only module allowed to touch [Domain.*] (lint rule
    [raw-domain]); everything else threads a [Pool.t]. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] is clamped
    to [1 .. 64]; default {!default_jobs}).  [jobs = 1] spawns nothing and
    runs every region inline; with no hooks set (see {!set_hooks}) such a
    region takes no lock either. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1 .. 64] — the
    [--jobs] default of the CLI and bench binaries. *)

val jobs : t -> int
(** The pool's size (after clamping). *)

val shutdown : t -> unit
(** Quits and joins the workers.  Idempotent.  Must be called with no
    region in flight; afterwards the pool still works, sequentially. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on
    the way out, exception or not. *)

val parallel_for : t -> ?label:string -> int -> (int -> unit) -> unit
(** [parallel_for t n body] runs [body i] for every [i] in [0, n), chunked
    across the pool.  [body] must be index-pure; typical use writes to
    disjoint cells of a pre-allocated array.  [n <= 0] is a no-op. *)

val parallel_init : t -> ?label:string -> int -> (int -> 'a) -> 'a array
(** [parallel_init t n f] is [Array.init n f] with [f] evaluated across
    the pool ([f 0] on the calling domain first, to seed the array). *)

val map_reduce :
  t -> ?label:string -> n:int -> map:(int -> 'a) -> init:'b -> fold:('b -> 'a -> 'b) -> unit -> 'b
(** [map_reduce t ~n ~map ~init ~fold ()] evaluates [map i] across the
    pool, then folds the results on the calling domain in ascending index
    order — [fold (... (fold init (map 0)) ...) (map (n-1))] — so the
    result is bit-identical to the sequential fold even when [fold] is not
    associative. *)

val opt_for : t option -> ?label:string -> int -> (int -> unit) -> unit
(** [opt_for pool n body] is {!parallel_for} when [pool] is [Some] and a
    plain ascending [for] loop otherwise — the shape every [?pool]-taking
    kernel wants. *)

val opt_init : t option -> ?label:string -> int -> (int -> 'a) -> 'a array
(** [opt_init pool n f] is {!parallel_init} when [pool] is [Some] and
    [Array.init n f] otherwise. *)

type hooks = {
  region_enter : label:string -> items:int -> chunks:int -> unit;
  region_leave : label:string -> unit;
  chunk_enter : label:string -> slot:int -> lo:int -> hi:int -> unit;
  chunk_leave : label:string -> slot:int -> lo:int -> hi:int -> unit;
}
(** Instrumentation callbacks (see [Adhoc_obs.attach_pool]).  The region
    pair fires on the owning domain only, for top-level regions only —
    never for nested inline fallbacks — so region/item counts are
    identical for every [jobs] value; [chunks] is the number of chunk
    pairs that will fire ([min jobs items] when the region parallelizes,
    1 otherwise).  The chunk pair fires {e on the domain executing the
    chunk} — slot 0 is the calling domain, slot [i >= 1] worker [i - 1] —
    including on the single-chunk path (slot 0), and only for regions
    whose region pair fired, so begin/end events always balance.  Chunk
    hooks must confine themselves to domain-local state (per-slot
    buffers); the sink's shared metrics are owner-domain-only. *)

val set_hooks : t -> hooks option -> unit
(** Install or clear the instrumentation hooks. *)
