(** One stable counting-sort pass over small integer keys.

    Repeated passes from the least significant key to the most
    significant order entries by a compound key in O(k + buckets) per
    pass, with no comparison and no closure (LSD radix sort). *)

val pass : count:int array -> key:int array -> int array -> int array -> int -> unit
(** [pass ~count ~key src dst k] writes the entries [src.(0 .. k-1)] into
    [dst.(0 .. k-1)] in ascending order of [key.(x)] for each entry [x],
    entries with equal keys in their order in [src].  Keys must lie in
    [0 .. Array.length count - 2]; [count] is scratch and is
    overwritten. *)
