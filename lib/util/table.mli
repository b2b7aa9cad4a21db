(** Aligned plain-text tables for experiment output.

    The benchmark harness prints the same rows/series the paper's claims
    describe; this module keeps that output readable and diffable. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create cols] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Row cells must match the number of columns. *)

val add_float_row : t -> ?fmt:(float -> string) -> string -> float list -> unit
(** Convenience: a leading label cell followed by formatted floats. *)

val summary_table : ?title:string -> string -> t
(** [summary_table label] is the shared distribution-table shape: a
    [label] column followed by mean / median / p95 columns.  Used by
    [adhoc_sim analyze] and the live-telemetry summary so both render
    identically. *)

val add_summary_row : t -> ?fmt:(float -> string) -> ?mean:float -> string -> float array -> unit
(** Summarize [values] with {!Stats.summarize} into a {!summary_table}
    row (mean, median, p95).  [?mean] substitutes a pinned mean (e.g. a
    figure an engine already reports) for the recomputed one. *)

val to_string : t -> string

val print : t -> unit
(** [to_string] followed by a newline on stdout. *)
