(* Deterministic hash-table traversal.

   [Hashtbl]'s own iteration order is unspecified (it depends on the hash
   function, bucket count and insertion history), which is exactly what the
   hashtbl-order lint rule bans in library code: any float accumulation or
   list construction driven by it silently ties simulation output to
   Hashtbl internals.  These helpers pay one sort to make the traversal a
   function of the table's *contents* only.

   If a key carries several bindings (Hashtbl.add without remove), their
   relative order is still unspecified; use replace-semantics tables with
   these helpers. *)

let sorted_bindings ?compare:(cmp = Stdlib.compare) tbl = (* lint: allow poly-compare — generic helper over arbitrary key types; callers with float or composite keys pass an explicit comparator *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] (* lint: allow hashtbl-order — fold only collects; the result is sorted below, so it is order-independent *)
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let fold_sorted ?compare:cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ?compare:cmp tbl)
