(** The physical (SINR) interference model of Gupta & Kumar — the model the
    paper's pairwise guard-zone rule simplifies (Section 2.4, "the protocol
    model ... is a simplified version of the physical model [24]").

    A transmission from [x] to [y] succeeds when the signal-to-
    interference-plus-noise ratio at [y] clears the decoding threshold:

    [P_x / |xy|^alpha  /  (noise + Σ_{j≠x} P_j / |x_j y|^alpha)  >=  beta]

    Senders use distance-proportional power [P = margin · noise · beta ·
    d^alpha], the minimal power that would succeed on an idle channel
    scaled by [margin].  Experiment E16 measures how often edge sets that
    are non-interfering under the guard-zone model remain feasible here —
    the fidelity cost of the simplification, as a function of Δ. *)

type t = {
  alpha : float;  (** path-loss exponent (2–4) *)
  beta : float;  (** SINR decoding threshold (> 0) *)
  noise : float;  (** ambient noise floor (> 0) *)
  margin : float;  (** transmit-power headroom over the idle-channel minimum *)
}

val make : ?beta:float -> ?noise:float -> ?margin:float -> alpha:float -> unit -> t
(** Defaults: [beta = 2.], [noise = 1e-6], [margin = 2.]. *)

val feasible :
  t ->
  points:Adhoc_geom.Point.t array ->
  transmissions:(int * int) array ->
  bool array
(** Per-transmission success under simultaneous operation: entry [i] is
    whether the SINR at the receiver of the [i]-th (sender, receiver)
    pair clears [beta]. *)

val all_feasible :
  t -> points:Adhoc_geom.Point.t array -> transmissions:(int * int) array -> bool

val feasible_fraction :
  t -> points:Adhoc_geom.Point.t array -> transmissions:(int * int) array -> float
(** Fraction of the set that decodes successfully ([1.] for the empty
    set). *)
