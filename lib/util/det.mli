(** Deterministic (sorted-key) traversal of hash tables.

    [Hashtbl.iter]/[fold] visit bindings in an unspecified order; driving
    float accumulation or list construction from them ties results to
    Hashtbl internals.  These helpers traverse in ascending key order
    ([compare] defaults to the polymorphic compare — pass [Float.compare]
    for float keys), making the traversal a function of the table's
    contents only.  Keys are assumed to carry a single binding each
    (replace semantics). *)

val sorted_bindings : ?compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings in ascending key order. *)

val fold_sorted :
  ?compare:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [fold_sorted f tbl init] folds over bindings in ascending key order. *)
