let two_pi = 2. *. Float.pi

let count theta =
  if not (theta > 0. && Float.is_finite theta) then
    invalid_arg "Sector.count: theta must be positive and finite";
  int_of_float (Float.ceil ((two_pi /. theta) -. 1e-9))

let index ~theta ~apex p =
  let k = count theta in
  let a = Point.angle_of apex p in
  let i = int_of_float (a /. theta) in
  (* Guard against a = 2π-epsilon rounding up to k. *)
  if i >= k then k - 1 else i

let same ~theta ~apex p q = index ~theta ~apex p = index ~theta ~apex q
