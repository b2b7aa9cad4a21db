type t = { x : float; y : float }

let make x y = { x; y }

let origin = { x = 0.; y = 0. }

let ( +@ ) a b = { x = a.x +. b.x; y = a.y +. b.y }

let ( -@ ) a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k p = { x = k *. p.x; y = k *. p.y }

let dot a b = (a.x *. b.x) +. (a.y *. b.y)

let cross a b = (a.x *. b.y) -. (a.y *. b.x)

let norm2 p = dot p p

let norm p = sqrt (norm2 p)

let dist2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let dist a b = sqrt (dist2 a b)

let energy ?(kappa = 2.) u v =
  if Float.equal kappa 2. then dist2 u v else Float.pow (dist u v) kappa

let midpoint a b = { x = (a.x +. b.x) /. 2.; y = (a.y +. b.y) /. 2. }

let two_pi = 2. *. Float.pi

let angle_of u v =
  let a = Float.atan2 (v.y -. u.y) (v.x -. u.x) in
  if a < 0. then a +. two_pi else a

let lerp a b t = a +@ scale t (b -@ a)

let equal a b = a.x = b.x && a.y = b.y

let compare a b =
  let c = Float.compare a.x b.x in
  if c <> 0 then c else Float.compare a.y b.y

let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y

let to_string p = Format.asprintf "%a" pp p
