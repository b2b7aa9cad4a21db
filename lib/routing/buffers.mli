(** Per-destination packet buffers [Q_{v,d}] (paper Section 3.1).

    The balancing algorithm never inspects packet identity — only buffer
    heights — so buffers store counts.  The destination's own buffer
    [Q_{d,d}] is always empty: arrivals there are absorbed (delivered).

    State is flat struct-of-arrays: each node holds a sorted growable
    row of nonzero destinations, so memory is O(n + live buffers) and
    {!heights} reads them in a deterministic ascending order. *)

(** Generic sparse integer rows: per-row sorted (key, value) pairs in
    growable parallel int arrays, values never 0.  The engine reuses them
    for advertised heights and anycast group membership. *)
module Sparse : sig
  type t = private {
    key : int array array;
        (** [key.(v)] is row [v]'s key array: its first [len.(v)] entries
            are the live keys, strictly ascending.  A later insertion may
            replace the array, so read it afresh after any write. *)
    value : int array array;  (** The values parallel to [key], never 0. *)
    len : int array;  (** Live entries per row. *)
  }
  (** Rows are read as fields, so a per-element loop in another module
      indexes arrays instead of calling an accessor (the library builds
      with [-opaque] in the dev profile, so no call inlines across
      modules); only the functions below build or write them. *)

  val create : int -> t
  (** [create n] makes [n] empty rows. *)

  val size : t -> int
  (** Number of rows. *)

  val find : t -> int -> int -> int
  (** [find t v k] is the index of [k] in row [v] when present,
      otherwise [lnot insertion_point]. *)

  val get : t -> int -> int -> int
  (** [get t v k] is the value stored for [k] in row [v], or 0. *)

  val set : t -> int -> int -> int -> unit
  (** [set t v k x] stores [x]; storing 0 removes the entry. *)

  val update : t -> int -> int -> int -> int
  (** [update t v k delta] adds [delta] to the stored value (0 when
      absent), removes the entry if the result is 0, and returns the new
      value. *)
end

type t

val create : int -> t
(** [create n] makes empty buffers for [n] nodes (and [n] possible
    destinations). *)

val height : t -> int -> int -> int
(** [height t v d] is [h_{v,d}].  O(log live) binary search in [v]'s
    nonzero row. *)

val heights : t -> Sparse.t
(** The live height rows ([height t v d] is [Sparse.get (heights t) v d]),
    for reading only: writes through them bypass {!total},
    {!max_height} and the watcher. *)

val inject : t -> cap:int -> int -> int -> bool
(** [inject t ~cap src dest] adds a packet to [Q_{src,dest}] unless the
    buffer already holds [cap] packets ([false] = dropped) or
    [src = dest] (absorbed immediately, returns [true]). *)

val force_add : t -> int -> int -> unit
(** Adds a packet regardless of any cap (used for in-transit arrivals,
    which the algorithm never drops). *)

val remove : t -> int -> int -> unit
(** Removes one packet from [Q_{v,d}].  Requires a positive height. *)

val total : t -> int
(** Total packets currently buffered. *)

val max_height : t -> int
(** Largest buffer height present.  O(1): tracked incrementally across
    adds and removes. *)

val set_watcher : t -> (int -> int -> unit) -> unit
(** [set_watcher t f] makes every height change call [f v d] (after the
    change is applied).  At most one watcher is active; setting a new one
    replaces the old.  The engines use this to maintain dirty-node sets
    for incremental decision caching. *)

val clear_watcher : t -> unit
