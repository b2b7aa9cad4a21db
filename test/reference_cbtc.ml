(* CBTC's per-node stopping condition by a full scan: every cone of
   angle [alpha] apexed at [u] contains a neighbour within distance [r].
   The oracle for the grid path inside Cbtc.build. *)

module Point = Adhoc_geom.Point

(* Every cone of angle alpha apexed at u contains one of the given angles
   iff the largest angular gap between consecutive neighbours is < alpha.
   Only the multiset of angle values matters, so callers may supply them
   in any order. *)
let gaps_covered ~alpha angles =
  match angles with
  | [] -> false
  | [ _ ] -> alpha > 2. *. Float.pi -. 1e-12
  | _ ->
      let sorted = List.sort Float.compare angles in
      let first = List.hd sorted in
      let rec max_gap prev acc = function
        | [] -> Float.max acc (first +. (2. *. Float.pi) -. prev)
        | a :: rest -> max_gap a (Float.max acc (a -. prev)) rest
      in
      max_gap first 0. (List.tl sorted) < alpha

let coverage_ok ~alpha points u r =
  let angles = ref [] in
  Array.iteri
    (fun v p ->
      if v <> u && Point.dist points.(u) p <= r then
        angles := Point.angle_of points.(u) p :: !angles)
    points;
  gaps_covered ~alpha !angles
