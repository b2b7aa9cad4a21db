type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = Sketch.t

type instrument = C of counter | G of gauge | H of histogram

type t = (string, instrument) Hashtbl.t

let create () : t = Hashtbl.create 16

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name make match_existing =
  match Hashtbl.find_opt t name with
  | None ->
      let i = make () in
      Hashtbl.add t name i;
      i
  | Some existing -> (
      match match_existing existing with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already a %s" name (kind_name existing)))

let counter t name =
  match register t name (fun () -> C { count = 0 }) (function C _ as i -> Some i | _ -> None)
  with
  | C c -> c
  | _ -> assert false

let incr c = c.count <- c.count + 1

let add c k =
  if k < 0 then invalid_arg "Metrics.add: negative increment";
  c.count <- c.count + k

let gauge t name =
  match register t name (fun () -> G { value = 0. }) (function G _ as i -> Some i | _ -> None)
  with
  | G g -> g
  | _ -> assert false

let set g v = g.value <- v

let histogram t name ~buckets =
  let make () = H (Sketch.create ~buckets ()) in
  let match_existing = function
    | H h as i -> if Sketch.bounds h = buckets then Some i else None
    | _ -> None
  in
  match register t name make match_existing with H h -> h | _ -> assert false

let observe = Sketch.observe

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : float array; counts : int array; total : int; sum : float }

let snapshot t =
  (* lint: allow hashtbl-order — fold only collects bindings; the list is sorted by name below, so the snapshot is order-independent *)
  Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | C c -> Counter c.count
        | G g -> Gauge g.value
        | H h ->
            Histogram
              {
                buckets = Sketch.bounds h;
                counts = Sketch.counts h;
                total = Sketch.count h;
                sum = Sketch.sum h;
              }
      in
      (name, v) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
