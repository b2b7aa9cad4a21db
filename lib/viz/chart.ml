open Adhoc_geom

type series = {
  label : string;
  color : string;
  points : (float * float) array;
}

let palette = [| "#1f4e8c"; "#c0392b"; "#1e8449"; "#b58900"; "#6c3483"; "#117864" |]

let auto_color = ref 0

let series ?color ~label points =
  let color =
    match color with
    | Some c -> c
    | None ->
        let c = palette.(!auto_color mod Array.length palette) in
        incr auto_color;
        c
  in
  { label; color; points }

let data_box all =
  let xs = List.concat_map (fun s -> Array.to_list (Array.map fst s.points)) all in
  let ys = List.concat_map (fun s -> Array.to_list (Array.map snd s.points)) all in
  match (xs, ys) with
  | [], _ | _, [] -> invalid_arg "Chart.render: no data points"
  | x :: xs', y :: ys' ->
      let xmin = List.fold_left Float.min x xs' and xmax = List.fold_left Float.max x xs' in
      let ymin = List.fold_left Float.min y ys' and ymax = List.fold_left Float.max y ys' in
      let ymin = if ymin > 0. then 0. else ymin in
      let pad v = if Float.equal v 0. then 1. else Float.abs v *. 0.05 in
      Box.make
        ~xmin:(xmin -. pad (xmax -. xmin))
        ~ymin
        ~xmax:(xmax +. pad (xmax -. xmin))
        ~ymax:(ymax +. pad (ymax -. ymin))

let render ?(width = 720) ?title ?x_label ?y_label all =
  let box = data_box all in
  let svg = Svg.create ~margin:(0.12 *. Box.diagonal box) ~width ~world:box () in
  let w = Box.width box and h = Box.height box in
  (* Axes along the data box's left/bottom. *)
  let origin = Point.make box.Box.xmin box.Box.ymin in
  Svg.line svg ~stroke:"#333333" ~stroke_width:1.5 origin (Point.make box.Box.xmax box.Box.ymin);
  Svg.line svg ~stroke:"#333333" ~stroke_width:1.5 origin (Point.make box.Box.xmin box.Box.ymax);
  (* Ticks: 5 divisions per axis. *)
  for i = 0 to 5 do
    let fx = box.Box.xmin +. (float_of_int i /. 5. *. w) in
    let fy = box.Box.ymin +. (float_of_int i /. 5. *. h) in
    Svg.line svg ~stroke:"#999999" ~stroke_width:0.6 ~dashed:true
      (Point.make fx box.Box.ymin) (Point.make fx box.Box.ymax);
    Svg.line svg ~stroke:"#999999" ~stroke_width:0.6 ~dashed:true
      (Point.make box.Box.xmin fy) (Point.make box.Box.xmax fy);
    Svg.text svg ~size:11. (Point.make fx (box.Box.ymin -. (0.05 *. h)))
      (Printf.sprintf "%g" fx);
    Svg.text svg ~size:11. (Point.make (box.Box.xmin -. (0.09 *. w)) fy)
      (Printf.sprintf "%g" fy)
  done;
  (* Series. *)
  List.iter
    (fun s ->
      let pts = Array.to_list (Array.map (fun (x, y) -> Point.make x y) s.points) in
      Svg.polyline svg ~stroke:s.color ~stroke_width:2. pts;
      List.iter (fun p -> Svg.circle svg ~fill:s.color p (0.006 *. Box.diagonal box)) pts)
    all;
  (* Legend, top-left inside the plot area. *)
  List.iteri
    (fun i s ->
      let y = box.Box.ymax -. (float_of_int i *. 0.06 *. h) in
      let x = box.Box.xmin +. (0.03 *. w) in
      Svg.line svg ~stroke:s.color ~stroke_width:3. (Point.make x y)
        (Point.make (x +. (0.05 *. w)) y);
      Svg.text svg ~size:12. (Point.make (x +. (0.07 *. w)) y) s.label)
    all;
  (* Titles. *)
  (match title with
  | Some t -> Svg.text svg ~size:15. (Point.make (box.Box.xmin +. (0.3 *. w)) (box.Box.ymax +. (0.07 *. h))) t
  | None -> ());
  (match x_label with
  | Some t -> Svg.text svg ~size:12. (Point.make (box.Box.xmin +. (0.45 *. w)) (box.Box.ymin -. (0.11 *. h))) t
  | None -> ());
  (match y_label with
  | Some t -> Svg.text svg ~size:12. (Point.make (box.Box.xmin -. (0.11 *. w)) (box.Box.ymax +. (0.04 *. h))) t
  | None -> ());
  svg

let save ?width ?title ?x_label ?y_label all path =
  Svg.save (render ?width ?title ?x_label ?y_label all) path
