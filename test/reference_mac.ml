(* The list-based MACs that the array interface of Adhoc_mac.Mac replaced,
   kept as the oracle for it: each [select] takes the requests as a list
   of records and returns the granted ones, in grant order.  The bodies
   are the old ones; only the honeycomb MAC takes its parameters as
   arguments, since Honeycomb.t is abstract. *)

module Conflict = Adhoc_interference.Conflict
module Prng = Adhoc_util.Prng
module Mac = Adhoc_mac.Mac

type request = {
  edge : int;
  sender : int;
  benefit : float;
}

type t = { name : string; select : step:int -> request list -> request list }

let color conflict =
  let colors, num_colors = Conflict.greedy_coloring conflict in
  let select ~step requests =
    if num_colors = 0 then requests
    else begin
      let active = step mod num_colors in
      List.filter (fun r -> colors.(r.edge) = active) requests
    end
  in
  { name = "color-mac"; select }

let random_interference ~rng conflict =
  let bounds = Conflict.neighborhood_bounds conflict in
  let select ~step:_ requests =
    List.filter
      (fun r ->
        let i = max 1 bounds.(r.edge) in
        Prng.uniform rng < 1. /. (2. *. float_of_int i))
      requests
  in
  { name = "random-mac"; select }

let greedy_accept ~adj ~chosen_mark iter =
  let chosen = ref [] in
  iter (fun r ->
      if not (Array.exists (fun e' -> chosen_mark.(e')) adj.(r.edge)) then begin
        chosen_mark.(r.edge) <- true;
        chosen := r :: !chosen
      end);
  let accepted = List.rev !chosen in
  List.iter (fun r -> chosen_mark.(r.edge) <- false) accepted;
  accepted

let greedy_independent conflict =
  let adj = Helpers.conflict_rows conflict in
  let chosen_mark = Array.make (Array.length adj) false in
  let select ~step:_ requests =
    let sorted = List.sort (fun a b -> Float.compare b.benefit a.benefit) requests in
    greedy_accept ~adj ~chosen_mark (fun f -> List.iter f sorted)
  in
  { name = "greedy-mac"; select }

let csma ~rng conflict =
  let adj = Helpers.conflict_rows conflict in
  let chosen_mark = Array.make (Array.length adj) false in
  let select ~step:_ requests =
    let order = Array.of_list requests in
    Prng.shuffle rng order;
    greedy_accept ~adj ~chosen_mark (fun f -> Array.iter f order)
  in
  { name = "csma"; select }

let all = { name = "all"; select = (fun ~step:_ requests -> requests) }

module Coord_map = Map.Make (struct
  type t = Adhoc_geom.Hexgrid.coord

  let compare = Adhoc_geom.Hexgrid.compare_coord
end)

let honeycomb ?(p_t = 1. /. 6.) ~threshold ~rng hex_of_node =
  let select ~step:_ requests =
    (* Best request per hexagon of the sender. *)
    let best =
      List.fold_left
        (fun acc r ->
          let hex = hex_of_node r.sender in
          match Coord_map.find_opt hex acc with
          | Some b when b.benefit >= r.benefit -> acc
          | _ -> Coord_map.add hex r acc)
        Coord_map.empty requests
    in
    (* Contestants flip the p_t coin. *)
    Coord_map.fold
      (fun _ r acc -> if r.benefit > threshold && Prng.uniform rng < p_t then r :: acc else acc)
      best []
    |> List.rev
  in
  { name = "honeycomb"; select }

(* An array MAC on a request list: the granted requests, in its grant
   order. *)
let grant (mac : Mac.t) ~step requests =
  let reqs = Array.of_list requests in
  let count = Array.length reqs in
  let granted = Array.make count 0 in
  let n =
    mac.Mac.select ~step
      ~edge:(Array.map (fun r -> r.edge) reqs)
      ~sender:(Array.map (fun r -> r.sender) reqs)
      ~benefit:(Array.map (fun r -> r.benefit) reqs)
      ~count ~granted
  in
  List.init n (fun i -> reqs.(granted.(i)))

(* The array MACs that no scenario of the simulator selects, on the
   interface of Adhoc_mac.Mac: the idealised colour-class MAC, the
   benefit-greedy independent set and the grant-everything MAC.  The
   engine tests run the step kernel under them. *)
module Array_mac = struct
  (* Top-level loops rather than closures over the request arrays, so a
     grant in request order allocates nothing. *)
  let grant_all ~count ~granted =
    for i = 0 to count - 1 do
      granted.(i) <- i
    done;
    count

  (* Round-robin over a greedy colouring of the conflict graph: step [t]
     grants, in request order, the requests whose edge has colour
     [t mod k]. *)
  let color conflict =
    let colors, num_colors = Conflict.greedy_coloring conflict in
    let select ~step ~edge ~sender:_ ~benefit:_ ~count ~granted =
      if num_colors = 0 then grant_all ~count ~granted
      else begin
        let active = step mod num_colors in
        let n = ref 0 in
        for i = 0 to count - 1 do
          if colors.(edge.(i)) = active then begin
            granted.(!n) <- i;
            incr n
          end
        done;
        !n
      end
    in
    { Mac.name = "color-mac"; select }

  (* Greedily accept the requests in [order] (indices), each iff no
     already-chosen edge interferes with it. *)
  let greedy_accept conflict ~chosen_mark ~edge ~granted order =
    let n = ref 0 in
    for j = 0 to Array.length order - 1 do
      let i = order.(j) in
      let e = edge.(i) in
      if not (Conflict.row_marked conflict chosen_mark e) then begin
        chosen_mark.(e) <- true;
        granted.(!n) <- i;
        incr n
      end
    done;
    for j = 0 to !n - 1 do
      chosen_mark.(edge.(granted.(j))) <- false
    done;
    !n

  (* A maximal non-interfering subset, highest benefit first: the
     requests in a stable sort by decreasing benefit, each granted unless
     it interferes with one granted before it. *)
  let greedy_independent conflict =
    let chosen_mark = Array.make (Conflict.num_edges conflict) false in
    let select ~step:_ ~edge ~sender:_ ~benefit ~count ~granted =
      let order = Array.init count Fun.id in
      Array.stable_sort (fun a b -> Float.compare benefit.(b) benefit.(a)) order;
      greedy_accept conflict ~chosen_mark ~edge ~granted order
    in
    { Mac.name = "greedy-mac"; select }

  (* Grants everything, in request order. *)
  let all =
    let select ~step:_ ~edge:_ ~sender:_ ~benefit:_ ~count ~granted = grant_all ~count ~granted in
    { Mac.name = "all"; select }
end
