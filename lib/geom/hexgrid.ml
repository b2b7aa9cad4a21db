type coord = { q : int; r : int }

type t = { side : float }

let make ~side =
  if side <= 0. then invalid_arg "Hexgrid.make: side must be positive";
  { side }

let side t = t.side

let sqrt3 = sqrt 3.

(* Fractional axial coordinates, then cube rounding (round each cube
   coordinate and fix the one with the largest rounding error so that
   q + r + s = 0 still holds). *)
let of_point t (p : Point.t) =
  let qf = ((sqrt3 /. 3. *. p.x) -. (1. /. 3. *. p.y)) /. t.side in
  let rf = 2. /. 3. *. p.y /. t.side in
  let sf = -.qf -. rf in
  let q = Float.round qf and r = Float.round rf and s = Float.round sf in
  let dq = Float.abs (q -. qf) and dr = Float.abs (r -. rf) and ds = Float.abs (s -. sf) in
  let q, r =
    if dq > dr && dq > ds then (-.r -. s, r)
    else if dr > ds then (q, -.q -. s)
    else (q, r)
  in
  { q = int_of_float q; r = int_of_float r }

let center t c =
  let qf = float_of_int c.q and rf = float_of_int c.r in
  Point.make (t.side *. sqrt3 *. (qf +. (rf /. 2.))) (t.side *. 1.5 *. rf)

let directions = [ (1, 0); (1, -1); (0, -1); (-1, 0); (-1, 1); (0, 1) ]

let neighbors c = List.map (fun (dq, dr) -> { q = c.q + dq; r = c.r + dr }) directions

let ring c k =
  if k < 0 then invalid_arg "Hexgrid.ring: negative radius";
  if k = 0 then [ c ]
  else begin
    (* Walk the ring: start k steps in direction 4, then k steps in each of
       the six directions. *)
    let result = ref [] in
    let cur = ref { q = c.q + (-1 * k); r = c.r + k } in
    List.iter
      (fun (dq, dr) ->
        for _ = 1 to k do
          result := !cur :: !result;
          cur := { q = !cur.q + dq; r = !cur.r + dr }
        done)
      directions;
    !result
  end

let disk c k =
  let rec collect i acc = if i > k then acc else collect (i + 1) (ring c i @ acc) in
  collect 0 []

let compare_coord a b =
  let c = Int.compare a.q b.q in
  if c <> 0 then c else Int.compare a.r b.r

let equal_coord a b = a.q = b.q && a.r = b.r

module Coord_map = Map.Make (struct
  type nonrec t = coord

  let compare = compare_coord
end)

let group_points t points =
  let m = ref Coord_map.empty in
  Array.iteri
    (fun i p ->
      let c = of_point t p in
      m :=
        Coord_map.update c
          (function None -> Some [ i ] | Some l -> Some (i :: l))
          !m)
    points;
  Coord_map.bindings !m
