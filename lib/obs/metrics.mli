(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    A registry is a flat namespace of instruments.  Registration returns a
    handle; updates through a handle are O(1) (histograms binary-search
    their fixed bucket bounds) and allocation-free, so instrumented hot
    loops pay one array store per update.  {!snapshot} exports everything
    as an assoc list for rendering or serialization — the registry itself
    knows nothing about output formats. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** A float that can move both ways (last write wins). *)

type histogram
(** Counts of observations against fixed, strictly increasing upper
    bounds, plus an overflow bin. *)

val create : unit -> t

val counter : t -> string -> counter
(** [counter t name] registers a counter under [name], or returns the
    existing one.  Raises [Invalid_argument] if [name] is already
    registered as a different kind of instrument. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Requires a non-negative increment. *)

val gauge : t -> string -> gauge
(** Same registration contract as {!counter}. *)

val set : gauge -> float -> unit

val histogram : t -> string -> buckets:float array -> histogram
(** [histogram t name ~buckets] registers a histogram whose bins are
    [(-inf, b0], (b0, b1], …, (bk, +inf)] — an observation equal to a
    bound lands in that bound's bin.  [buckets] must be non-empty,
    finite and strictly increasing ({!Sketch.create} raises
    [Invalid_argument] otherwise).  Re-registration under the same name
    requires identical buckets. *)

val observe : histogram -> float -> unit
(** {!Sketch.observe}: [nan] is ignored. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : float array;  (** the upper bounds, as registered *)
      counts : int array;  (** per-bin counts; [length buckets + 1] with the overflow bin last *)
      total : int;  (** number of observations *)
      sum : float;  (** sum of observations *)
    }

val snapshot : t -> (string * value) list
(** Current state of every instrument, sorted by name.  Histogram arrays
    are copies; mutating them does not affect the registry. *)
