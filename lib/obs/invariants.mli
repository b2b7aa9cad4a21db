(** Online invariant checker over a packet-journey event stream.

    Folds over {!Event.t}s as they are recorded (attach to a live log) or
    offline (run over a loaded array) and accumulates violations, each
    with the index of the offending event.  Checked invariants:

    - {b monotone steps} — event step numbers never decrease;
    - {b buffer conservation} — a [Send] only drains a buffer some
      earlier event filled ([Inject]/[Send Moved]), heights never go
      negative, and [Send Delivered] / [Send Moved] agree with whether
      [dst] absorbs [dest] (by default [dst = dest]; see [absorbs]);
    - {b delivery pairing} — every delivering event ([Send Delivered],
      self-absorbed [Inject]) is followed by exactly one [Deliver], and
      no [Deliver] appears unprovoked;
    - {b edge activity} — with [is_active], every [Send]/[Collide] uses
      an edge active at that step; with [endpoints], the send's
      [src]/[dst] are the edge's endpoints (either orientation);
    - {b accounting} — {!final_check} reconciles the fold's totals
      (injected, dropped, delivered, sends, failed sends, energy,
      packets still buffered) against the engine's reported stats;
      energy is summed in event order, so a faithful log matches the
      engine's [total_cost] bit-for-bit.

    The checker stores at most {!max_kept} violations (it keeps
    counting past that), so a hopelessly corrupt log cannot blow up
    memory. *)

type violation = { index : int;  (** offending event index; [length log] for final checks *)
                   reason : string }

type t

val create :
  ?is_active:(step:int -> edge:int -> bool) ->
  ?endpoints:(int -> int * int) ->
  ?absorbs:(node:int -> dest:int -> bool) ->
  unit ->
  t
(** [absorbs ~node ~dest] is the run's absorption rule: whether a packet
    keyed [dest] is absorbed at [node], both when it is injected there
    and when a send delivers it there.  The default, [node = dest], is
    every [Engine.Destination] run's.  An [Engine.Group] run keys a
    packet for group [g] as [n + g] on [n] nodes and absorbs it at any
    member, so its checker needs
    [fun ~node ~dest -> dest >= n && Array.mem node members.(dest - n)]. *)

val check : t -> int -> Event.t -> unit
(** Feed one event with its index.  Steps must be fed in log order. *)

val attach : t -> Event.log -> unit
(** Check every subsequently recorded event online (adds an observer to
    the log, keeping any already attached). *)

val final_check :
  t ->
  injected:int ->
  dropped:int ->
  delivered:int ->
  sends:int ->
  failed_sends:int ->
  total_cost:float ->
  remaining:int ->
  unit
(** Reconcile against an engine's end-of-run stats; mismatches are
    recorded as violations at index = number of events checked.  Also
    flags a dangling unpaired delivery. *)

val run :
  ?is_active:(step:int -> edge:int -> bool) ->
  ?endpoints:(int -> int * int) ->
  ?absorbs:(node:int -> dest:int -> bool) ->
  Event.t array ->
  violation list
(** Offline convenience: fold a whole array (no final stats check). *)

val max_kept : int
(** Violations stored verbatim; further ones only bump the count. *)

val violation_count : t -> int

val violations : t -> violation list
(** In detection order, at most {!max_kept}. *)

val ok : t -> bool

val report : t -> string
(** Human-readable multi-line summary ("ok" or the violations). *)
