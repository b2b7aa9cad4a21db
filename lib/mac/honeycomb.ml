open Adhoc_geom
module Prng = Adhoc_util.Prng

type t = {
  coin : int;  (* Prng.bernoulli_threshold p_t *)
  threshold : float;
  rng : Prng.t;
  hexgrid : Hexgrid.t;
  hex_of_node : Hexgrid.coord array;
}

let create ?(p_t = 1. /. 6.) ~delta ~range ~threshold ~rng points =
  if not (p_t > 0. && p_t <= 1.) then invalid_arg "Honeycomb.create: p_t must be in (0,1]";
  if delta < 0. then invalid_arg "Honeycomb.create: negative delta";
  if range <= 0. then invalid_arg "Honeycomb.create: range must be positive";
  let hexgrid = Hexgrid.make ~side:((3. +. (2. *. delta)) *. range) in
  let hex_of_node = Array.map (Hexgrid.of_point hexgrid) points in
  { coin = Prng.bernoulli_threshold p_t; threshold; rng; hexgrid; hex_of_node }

let hexagon_of t i = t.hex_of_node.(i)

let grid t = t.hexgrid

module Coord_map = Map.Make (struct
  type t = Hexgrid.coord

  let compare = Hexgrid.compare_coord
end)

let mac t =
  let select ~step:_ ~edge:_ ~sender ~benefit ~count ~granted =
    (* Best request per hexagon of the sender: the first of the largest
       benefit. *)
    let best = ref Coord_map.empty in
    for i = 0 to count - 1 do
      let hex = t.hex_of_node.(sender.(i)) in
      match Coord_map.find_opt hex !best with
      | Some b when benefit.(b) >= benefit.(i) -> ()
      | _ -> best := Coord_map.add hex i !best
    done;
    (* Contestants flip the p_t coin, in ascending hexagon order;
       [Prng.bernoulli] draws what [Prng.uniform rng < p_t] would, without
       boxing the float. *)
    Coord_map.fold
      (fun _ i n ->
        if benefit.(i) > t.threshold && Prng.bernoulli t.rng t.coin then begin
          granted.(n) <- i;
          n + 1
        end
        else n)
      !best 0
  in
  { Mac.name = "honeycomb"; select }
