(* Counting-sort CSR bucket grid.

   Buckets are two flat int arrays — [start] (prefix offsets over row-major
   cells) and [items] (point ids, bucket-major) — plus coordinate arrays
   [ix]/[iy] mirrored in item order, so the hot distance filter streams over
   contiguous unboxed floats instead of chasing [Point.t] pointers through
   cons cells.  Items within a bucket are listed in the order their ids
   appear in the build input (the counting sort is stable), which makes
   query iteration order a pure function of the point set. *)

type t = {
  cell : float;
  ox : float;
  oy : float;
  cols : int;
  rows : int;
  start : int array;  (* length cols*rows + 1; cell (col,row) spans
                         items.[start.(row*cols+col) .. start.(row*cols+col+1)) *)
  items : int array;  (* point ids, bucket-major *)
  ix : float array;  (* x coordinate of items.(k), parallel to [items] *)
  iy : float array;  (* y coordinate of items.(k), parallel to [items] *)
  points : Point.t array;  (* the build-time array; ids index into it *)
}

(* The bucketing: a coordinate's cell index is the floor of its offset
   from the least coordinate in cells, clamped to the grid.  Both are
   monotone in the coordinate, which is what makes a box scan exact (see
   the interface).  The clamp compares floats before converting, so an
   offset beyond the int range (an infinite coordinate, say) still lands
   on the last cell. *)
let clamp_cell c last =
  if c >= float_of_int last then last else if c > 0. then int_of_float c else 0

let column t x = clamp_cell (Float.floor ((x -. t.ox) /. t.cell)) (t.cols - 1)

let row t y = clamp_cell (Float.floor ((y -. t.oy) /. t.cell)) (t.rows - 1)

let cell_of t x y = (column t x, row t y)

(* Shared core: grid over [points.(ids.(k))], answering queries with the
   values stored in [ids].  [ids] must be duplicate-free. *)
let build_of_ids ~cell (points : Point.t array) ids =
  if cell <= 0. then invalid_arg "Spatial_grid.build: cell must be positive";
  let k = Array.length ids in
  if k = 0 then
    (* A valid empty grid: one empty cell, so every query and box scan
       is a no-op. *)
    { cell; ox = 0.; oy = 0.; cols = 1; rows = 1;
      start = [| 0; 0 |]; items = [||]; ix = [||]; iy = [||]; points }
  else begin
    let p0 = points.(ids.(0)) in
    let xmin = ref p0.Point.x and xmax = ref p0.Point.x in
    let ymin = ref p0.Point.y and ymax = ref p0.Point.y in
    for i = 1 to k - 1 do
      let p = points.(ids.(i)) in
      if p.Point.x < !xmin then xmin := p.Point.x;
      if p.Point.x > !xmax then xmax := p.Point.x;
      if p.Point.y < !ymin then ymin := p.Point.y;
      if p.Point.y > !ymax then ymax := p.Point.y
    done;
    let ox = !xmin and oy = !ymin in
    let cols = max 1 (1 + int_of_float (Float.floor ((!xmax -. ox) /. cell))) in
    let rows = max 1 (1 + int_of_float (Float.floor ((!ymax -. oy) /. cell))) in
    let t0 =
      { cell; ox; oy; cols; rows;
        start = [| 0 |]; items = [||]; ix = [||]; iy = [||]; points }
    in
    let cells = cols * rows in
    let count = Array.make (cells + 1) 0 in
    let bucket = Array.make k 0 in
    for i = 0 to k - 1 do
      let p = points.(ids.(i)) in
      let col, row = cell_of t0 p.Point.x p.Point.y in
      let b = (row * cols) + col in
      bucket.(i) <- b;
      count.(b + 1) <- count.(b + 1) + 1
    done;
    for b = 1 to cells do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    let start = Array.copy count in
    let items = Array.make k 0 in
    let ix = Array.make k 0. in
    let iy = Array.make k 0. in
    (* Ascending scan into ascending fill positions: stable, so each bucket
       lists ids in their [ids]-array order. *)
    for i = 0 to k - 1 do
      let b = bucket.(i) in
      let pos = count.(b) in
      count.(b) <- pos + 1;
      let p = points.(ids.(i)) in
      items.(pos) <- ids.(i);
      ix.(pos) <- p.Point.x;
      iy.(pos) <- p.Point.y
    done;
    { cell; ox; oy; cols; rows; start; items; ix; iy; points }
  end

let build ~cell points = build_of_ids ~cell points (Array.init (Array.length points) Fun.id)

let build_indexed ~cell points ids = build_of_ids ~cell points ids

let cell_size t = t.cell

let cell_lo t ~col ~row = t.start.((row * t.cols) + col)

let cell_hi t ~col ~row = t.start.((row * t.cols) + col + 1)

let slot_ids t = t.items

let slot_xs t = t.ix

let slot_ys t = t.iy

let length t = Array.length t.items

(* The box of cells column (px - w) .. column (px + w) by row (py - w) ..
   row (py + w) holds every point the [<=] test accepts.  For a point at
   offset dx = fl (x - px), fl dx² <= fl (dx² + dy²) <= fl r², so
   fl dx² < fl w² once w = fl (|r| (1 + 2^-20)) (in the normal range the
   widening beats the two roundings of r² and w²; below it, any r with
   r² < 2^-1022 only accepts |dx| < 2^-510), hence |dx| < w, and since w
   is a float, |x - px| < w exactly.  Rounding is monotone, so
   fl (px - w) <= x <= fl (px + w), and [column] is monotone too.  An
   infinite r² accepts everything, and an infinite w covers the grid.
   Cells are visited row-major and each in slot order. *)
let fold_within t (p : Point.t) r ~init ~f =
  if Array.length t.items = 0 then init
  else begin
    let r2 = r *. r in
    let px = p.Point.x and py = p.Point.y in
    let w =
      if Float.equal r2 infinity then infinity
      else Float.max (Float.abs r *. (1. +. 0x1p-20)) 0x1p-510
    in
    let c0 = column t (px -. w) and c1 = column t (px +. w) in
    let r0 = row t (py -. w) and r1 = row t (py +. w) in
    let acc = ref init in
    for rw = r0 to r1 do
      (* The box's columns of one row are one contiguous run of slots. *)
      for k = t.start.((rw * t.cols) + c0) to t.start.((rw * t.cols) + c1 + 1) - 1 do
        let dx = t.ix.(k) -. px and dy = t.iy.(k) -. py in
        if (dx *. dx) +. (dy *. dy) <= r2 then acc := f !acc t.items.(k)
      done
    done;
    !acc
  end

let iter_within t p r f = fold_within t p r ~init:() ~f:(fun () i -> f i)

let nearest_other t i =
  if Array.length t.items < 2 then None
  else begin
    let p = t.points.(i) in
    (* Expand the search radius until a neighbour is found; any point found
       within radius r dominates every point outside r, so the minimum over
       the found set is the global nearest. *)
    let rec search r =
      let best =
        fold_within t p r ~init:None ~f:(fun best j ->
            if j = i then best
            else begin
              let d = Point.dist2 t.points.(j) p in
              match best with
              | Some (bd, bj) ->
                  let c = Float.compare bd d in
                  if c < 0 || (c = 0 && bj < j) then best else Some (d, j)
              | None -> Some (d, j)
            end)
      in
      match best with
      | Some (_, j) -> Some j
      | None -> search (r *. 2.)
    in
    search t.cell
  end
