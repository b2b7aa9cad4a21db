(** Minimal SVG line charts — convergence and time-series figures for the
    experiments (deliveries over time, buffer occupancy, queue growth). *)

type series = {
  label : string;
  color : string;
  points : (float * float) array;  (** (x, y), in data coordinates *)
}

val series : ?color:string -> label:string -> (float * float) array -> series
(** Colours cycle through a small palette when omitted. *)

val render :
  ?width:int ->
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  Svg.t
(** Axes are scaled to the data's bounding box (with y forced to include 0
    when all values are positive), ticks at 5 divisions, legend in the top
    left.  Raises [Invalid_argument] when no series has points. *)

val save :
  ?width:int ->
  ?title:string ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  string ->
  unit
