open Adhoc_geom

type t = { delta : float }

let make ~delta =
  if not (delta >= 0. && Float.is_finite delta) then
    invalid_arg "Interference.Model.make: delta must be finite and non-negative";
  { delta }

let region_radius t len = (1. +. t.delta) *. len

let reach t ~points ~x ~y = region_radius t (Point.dist points.(x) points.(y))

let in_region t ~points ~x ~y p =
  let r = reach t ~points ~x ~y in
  let r2 = r *. r in
  Point.dist2 points.(x) p < r2 || Point.dist2 points.(y) p < r2

let one_way t ~points ~src:(a, b) ~dst:(u, v) =
  in_region t ~points ~x:a ~y:b points.(u) || in_region t ~points ~x:a ~y:b points.(v)

let interferes t ~points e e' = one_way t ~points ~src:e ~dst:e' || one_way t ~points ~src:e' ~dst:e
