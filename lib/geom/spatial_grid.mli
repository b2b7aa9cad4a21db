(** Uniform bucket grid over an indexed point set, stored CSR-style.

    Answers "which points lie within distance [r] of here" in output-sensitive
    time; this is what keeps disk-graph construction and interference-set
    computation near-linear instead of quadratic for the node counts the
    experiments sweep.  Buckets are flat prefix-offset/id arrays with the
    point coordinates mirrored in bucket order, so range queries stream over
    contiguous unboxed floats. *)

type t

val build : cell:float -> Point.t array -> t
(** [build ~cell points] hashes each point index into a square cell of side
    [cell].  Requires [cell > 0].  An empty array yields a valid empty grid
    (one empty cell) on which every query returns its zero result.  Point
    [i] of the array keeps index [i] in all query answers. *)

val build_indexed : cell:float -> Point.t array -> int array -> t
(** [build_indexed ~cell points ids] builds a grid over the subset
    [points.(ids.(0)), points.(ids.(1)), ...] only; query answers use the
    values stored in [ids] (the caller's original indices).  [ids] must be
    duplicate-free and each entry must index into [points].  Used for
    per-tile shard grids that answer with global node ids. *)

val cell_size : t -> float

(** {2 Box scans}

    A closure-free scan of a box of cells, for loops that test each point
    themselves.  A point of x-coordinate [px] lies in column
    [column g px] — the very function {!build} buckets with — and
    [column] is monotone, so a point with [lo <= px <= hi] lies in a
    column of [column g lo .. column g hi]; likewise for rows.  Scan row
    [r] of such a box as the slots
    [cell_lo g ~col:c0 ~row:r .. cell_hi g ~col:c1 ~row:r - 1]: cells are
    stored row-major, so the columns [c0 .. c1] of one row are one
    contiguous run of slots. *)

val column : t -> float -> int
(** [column g x] is the column of an x-coordinate: the floor of its offset
    from the grid's least x in cells, clamped to [0 .. columns - 1]. *)

val row : t -> float -> int
(** {!column} for y-coordinates. *)

val cell_lo : t -> col:int -> row:int -> int
(** First slot of cell [(col, row)]. *)

val cell_hi : t -> col:int -> row:int -> int
(** One past the last slot of cell [(col, row)]. *)

val slot_ids : t -> int array
(** The point id in each slot (the grid's own array, not a copy: read
    only). *)

val slot_xs : t -> float array
(** The x-coordinate of each slot's point (read only). *)

val slot_ys : t -> float array
(** The y-coordinate of each slot's point (read only). *)

val length : t -> int
(** Number of points stored in the grid. *)

val fold_within : t -> Point.t -> float -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_within g p r ~init ~f] folds [f] over the indices of all points at
    Euclidean distance ≤ [r] from [p] (including a point equal to [p] if
    present), in row-major cell order and slot order within a cell.  It
    scans the box of cells around [p] that the [<=] test can reach, [r]
    widened by a relative [2^-20] to cover rounding: 3–4 cells a side
    when [r] is about the cell size. *)

val iter_within : t -> Point.t -> float -> (int -> unit) -> unit

val nearest_other : t -> int -> int option
(** [nearest_other g i] is the index of the nearest point distinct from
    point [i] (ties broken by lower index), or [None] when the set has a
    single point.  Searches outward ring by ring.  [i] must be an id the
    grid was built over. *)
