(* e2e — end-to-end benchmark of one route-shaped run per workload.

   A workload is one instance of the paper's pipeline: points, G* and the
   ΘALG overlay (§2), the guard-zone conflict graph (§2.4), a certified
   adversarial workload, then the (T,γ)-balancing step loop (§3).  Per
   workload the bench

   - generates the points from --seed, outside timing;
   - runs one untimed warm-up through Pipeline.prepare and
     Pipeline.run_scenario1/2, whose output digest (at the default seed)
     must equal the pinned digest in expected/;
   - times trials that call each layer's public function in Pipeline's
     order from here, outside the library; every trial must reproduce
     the warm-up's digest, or it counts as failed.

   Untraced trials give the end-to-end metrics.  Each is bracketed by a
   fixed reference job, and its wall and engine times are also reported
   in units of that job's time (see [reference_s]).  --traced interleaves
   untraced trials with traced ones (an Adhoc_obs sink with GC deltas and
   a Domprof timeline, spans around each layer call, per-step times via
   the engines' ?on_step hook) and reports the per-layer metrics.  With no
   --workload, every workload runs in its own child process, one after
   another, so peak RSS belongs to one workload.  README.md has the
   workloads, the metric tables and example invocations. *)

open Adhoc
module Prng = Util.Prng
module Pool = Util.Pool
module Graph = Graphs.Graph
module Cost = Graphs.Cost
module Udg = Topo.Udg
module Theta_alg = Topo.Theta_alg
module Conflict = Interference.Conflict
module Workload = Routing.Workload
module Engine = Routing.Engine
module Balancing = Routing.Balancing
module Mac = Mac_protocols.Mac

let now = Obs.Clock.now

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

let theta = Float.pi /. 6.
let epsilon = 0.5
let kappa = 2.
let default_seed = 1

type scenario = Mac_given | Random_mac

type workload = {
  name : string;
  n : int;
  range_factor : float;  (** range = factor × Udg.critical_range *)
  delta : float;  (** guard zone Δ *)
  coloring : bool;  (** Conflict.greedy_coloring after the build, as [interference] runs it *)
  scenario : scenario;
  flows : int;
  max_hops : int;
  horizon : int;
  attempts : int;
  cooldown : int;
}

(* Pool domains, for every workload: on two vCPUs the per-step pool
   handoff spread one run's trials from 1.5 s to 2.8 s, and the reference
   job tracks the speed of one core. *)
let jobs = 1

let s1_flows =
  {
    name = "s1-flows";
    n = 1024;
    range_factor = 1.5;
    delta = 0.5;
    coloring = false;
    scenario = Mac_given;
    flows = 16;
    max_hops = 3;
    horizon = 12000;
    attempts = 24000;
    cooldown = 12000;
  }

let workloads =
  [
    s1_flows;
    (* 32 flows, not 16: with 16, the few seeds whose flows need many
       redraws within 3 hops set the spread across seeds of peak RSS (7.5%
       against 3.3%) and of wall time. *)
    {
      s1_flows with
      name = "s2-randmac";
      flows = 32;
      range_factor = 1.1;
      delta = 0.2;
      scenario = Random_mac;
      horizon = 32000;
      attempts = 32000;
      cooldown = 32000;
    };
    (* Topology control and interference at n = 4096 take three quarters
       of a trial; the short Scenario-1 tail keeps every end-to-end metric
       defined.  Within 3 hops a random pair is rare at this size, so
       certification would redraw flows hundreds of times, at a cost that
       swings 10× by seed; within 10 hops it costs about the same for every
       seed.  At n = 8192 a trial took 10 s, too few per run for a steady
       median. *)
    {
      s1_flows with
      name = "build-4k";
      n = 4096;
      coloring = true;
      flows = 4;
      max_hops = 10;
      horizon = 1000;
      attempts = 2000;
      cooldown = 1000;
    };
  ]

(* A jittered grid (the CLI's [--dist grid], jitter 0.1 of the cell).
   The seed moves every point, but unlike uniform points the critical
   range — an extreme-value statistic — barely moves, so the overlay,
   the conflict graph and I are the same size for every seed, and
   timings compare across seeds. *)
let make_points rng w = Pointset.Generators.jittered_grid ~jitter:0.1 rng w.n

let find_workload name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Smoke runs divide sizes and horizons; everything else stays. *)
let scaled k w =
  if k <= 1 then w
  else
    {
      w with
      n = max 16 (w.n / k);
      flows = max 1 (w.flows / k);
      horizon = max 1 (w.horizon / k);
      attempts = max 1 (w.attempts / k);
      cooldown = w.cooldown / k;
    }

(* ------------------------------------------------------------------ *)
(* One pass through the layers                                         *)

type outcome = {
  range : float;
  overlay : Graph.t;
  conflict : Conflict.t;
  interference_number : int;
  colours : int option;
  opt : Workload.opt_stats;
  stats : Engine.stats;
}

(* The warm-up: the library's own composition, which the timed trials
   must reproduce bit for bit. *)
let warm_up w ~pool (points, rng) =
  let rng = Prng.copy rng in
  let range = w.range_factor *. Udg.critical_range points in
  let b = Pipeline.prepare ~delta:w.delta ~pool ~theta ~range points in
  let colours =
    if w.coloring then Some (snd (Conflict.greedy_coloring b.Pipeline.conflict)) else None
  in
  let run =
    match w.scenario with
    | Mac_given -> Pipeline.run_scenario1
    | Random_mac -> Pipeline.run_scenario2
  in
  let r =
    run ~epsilon ~attempts:w.attempts ~horizon:w.horizon ~cooldown:w.cooldown ~flows:w.flows
      ~max_flow_hops:w.max_hops ~kappa ~pool ~rng b
  in
  {
    range;
    overlay = b.Pipeline.overlay;
    conflict = b.Pipeline.conflict;
    interference_number = b.Pipeline.interference_number;
    colours;
    opt = r.Pipeline.opt;
    stats = r.Pipeline.stats;
  }

type times = { wall : float; setup : float; engine : float }

(* A timed trial: Pipeline's layer calls, composed here, each inside a
   span on [obs] (a no-op without a sink).  [timer], when given, receives
   every step's duration in microseconds through the engine's ?on_step. *)
let compose w ~pool ?obs ?timer (points, rng) =
  let span label f = Obs.time obs label f in
  let rng = Prng.copy rng in
  let t0 = now () in
  let range =
    span "udg.critical_range" (fun () -> w.range_factor *. Udg.critical_range points)
  in
  let (_ : Graph.t) = span "udg.build" (fun () -> Udg.build ~pool ~range points) in
  let overlay =
    span "theta_alg.build" (fun () -> Theta_alg.overlay (Theta_alg.build ~pool ~theta ~range points))
  in
  let conflict =
    span "conflict.build" (fun () ->
        Conflict.build ~pool (Interference.Model.make ~delta:w.delta) ~points overlay)
  in
  let interference_number = Conflict.interference_number conflict in
  let colours =
    if w.coloring then
      Some (span "conflict.coloring" (fun () -> snd (Conflict.greedy_coloring conflict)))
    else None
  in
  let cost = Cost.energy ~kappa in
  let config interference_free =
    { Workload.horizon = w.horizon; attempts = w.attempts; slack = 12; interference_free }
  in
  let certify ?conflict interference_free =
    span "workload.certify" (fun () ->
        Workload.flows ?conflict ~max_hops:w.max_hops (config interference_free) ~rng
          ~graph:overlay ~cost ~num_flows:w.flows)
  in
  let last_step = ref 0. in
  let on_step =
    Option.map
      (fun us ~step ~delivered:_ ~buffered:_ ->
        let t = now () in
        us.(step) <- (t -. !last_step) *. 1e6;
        last_step := t)
      timer
  in
  let wl, route =
    match w.scenario with
    | Mac_given ->
        let wl = certify ~conflict true in
        let o = wl.Workload.opt in
        let params =
          Balancing.Derive.theorem_3_1 ~opt_buffer:o.Workload.max_buffer
            ~opt_avg_hops:o.Workload.avg_hops
            ~opt_avg_cost:(Float.max o.Workload.avg_cost 1e-9)
            ~delta:o.Workload.delta ~epsilon
        in
        ( wl,
          fun () ->
            Engine.run_mac_given ~cooldown:w.cooldown ?obs ~pool ?on_step ~pad:conflict
              ~graph:overlay ~cost ~params wl )
    | Random_mac ->
        let wl = certify false in
        let o = wl.Workload.opt in
        let params =
          Balancing.Derive.theorem_3_3 ~opt_buffer:o.Workload.max_buffer
            ~opt_avg_hops:o.Workload.avg_hops
            ~opt_avg_cost:(Float.max o.Workload.avg_cost 1e-9)
            ~epsilon
        in
        let mac = Mac.random_interference ~rng:(Prng.split rng) conflict in
        ( wl,
          fun () ->
            Engine.run_with_mac ~cooldown:w.cooldown ?obs ~pool ?on_step ~collisions:conflict
              ~graph:overlay ~cost ~params ~mac wl )
  in
  let t_setup = now () in
  last_step := t_setup;
  let stats = span "engine.run" route in
  let t_end = now () in
  ( { range; overlay; conflict; interference_number; colours; opt = wl.Workload.opt; stats },
    { wall = t_end -. t0; setup = t_setup -. t0; engine = t_end -. t_setup } )

(* ------------------------------------------------------------------ *)
(* Reference job                                                       *)

(* On a shared host the CPU's speed drifts by up to 2× over tens of
   seconds to minutes, and every trial slows with it, so a run's median
   wall time mostly measures the host.  A fixed job timed right before and
   right after each trial reads the same drift; a trial's time divided by
   the mean of the two is a time in units of that job, which cancels the
   drift.  The job is breadth-first search over a fixed random graph of
   32768 nodes and out-degree 6 (1.5 MB of int arrays, about the program's
   working set), from 64 sources.  It lives here and draws its graph with
   its own generator, so no change to the library can move it, and it
   allocates nothing after start-up, so GC settings cannot either. *)
let ref_nodes = 32768
let ref_degree = 6

let ref_adjacency =
  let x = ref 0x5eed in
  Array.init (ref_nodes * ref_degree) (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      !x lsr 15)

let ref_dist = Array.make ref_nodes 0
let ref_queue = Array.make ref_nodes 0

let reference_job () =
  let reached = ref 0 in
  for source = 0 to 63 do
    Array.fill ref_dist 0 ref_nodes (-1);
    let s = source * 509 in
    ref_dist.(s) <- 0;
    ref_queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = ref_queue.(!head) in
      incr head;
      for k = u * ref_degree to ((u + 1) * ref_degree) - 1 do
        let v = ref_adjacency.(k) in
        if ref_dist.(v) < 0 then begin
          ref_dist.(v) <- ref_dist.(u) + 1;
          ref_queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    reached := !reached + !tail
  done;
  !reached

let reference_s () =
  let t = now () in
  ignore (Sys.opaque_identity (reference_job ()));
  now () -. t

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)

let conflict_pairs c = Array.fold_left ( + ) 0 (Conflict.set_sizes c)

let digest w ~seed ~scale o =
  let b = Buffer.create 512 in
  let line k v = Printf.bprintf b "%s %s\n" k v in
  let int k v = line k (string_of_int v) in
  let flt k v = line k (Printf.sprintf "%.17g" v) in
  let s = o.stats in
  line "workload" w.name;
  int "seed" seed;
  int "scale" scale;
  int "n" w.n;
  flt "range" o.range;
  int "overlay_edges" (Graph.num_edges o.overlay);
  int "interference_number" o.interference_number;
  int "conflict_pairs" (conflict_pairs o.conflict);
  Option.iter (int "colours") o.colours;
  int "opt_deliveries" o.opt.Workload.deliveries;
  flt "opt_cost" o.opt.Workload.total_cost;
  int "steps" s.Engine.steps;
  int "injected" s.Engine.injected;
  int "dropped" s.Engine.dropped;
  int "delivered" s.Engine.delivered;
  int "sends" s.Engine.sends;
  int "failed_sends" s.Engine.failed_sends;
  flt "total_cost" s.Engine.total_cost;
  int "peak_height" s.Engine.peak_height;
  int "remaining" s.Engine.remaining;
  Buffer.contents b

let pin_file ~pins ~scale w =
  Filename.concat pins
    (if scale = 1 then w.name ^ ".digest" else Printf.sprintf "%s.scale%d.digest" w.name scale)

let report_mismatch what ~expected ~got =
  Printf.eprintf "e2e: %s digest mismatch\n" what;
  let e = String.split_on_char '\n' expected and g = String.split_on_char '\n' got in
  List.iter (fun l -> if not (List.mem l g) then Printf.eprintf "  - %s\n" l) e;
  List.iter (fun l -> if not (List.mem l e) then Printf.eprintf "  + %s\n" l) g

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's statistics.quantiles(xs, n=4) ("exclusive" method), so the
   quartiles printed here are the ones a reader recomputes from the JSON
   samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sample array. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* End-to-end metrics, from untraced trials.  Wall and engine time are
   listed in reference-job units, which the host's drift does not move;
   the same times in seconds ([wall_s], [steps_per_s]) are reported
   beside them but not listed in BENCHMARK.json.  Neither is
   [failed_frac]: it is 0 on a healthy run, and the attempted/failed
   counts of the last output line carry it. *)
let end_to_end =
  [ ("wall_ref", "ref"); ("setup_s", "s"); ("steps_per_ref", "steps/ref"); ("peak_rss_mb", "MB") ]

(* Which workloads run a layer: [Always] metrics are defined on every
   workload and are the ones BENCHMARK.json lists; the others are
   reported only where their layer runs. *)
type presence = Always | Coloring | With_mac

let present w = function
  | Always -> true
  | Coloring -> w.coloring
  | With_mac -> ( match w.scenario with Random_mac -> true | Mac_given -> false)

let per_layer =
  [
    ("udg.critical_range_s", "s", Always);
    ("udg.build_s", "s", Always);
    ("theta_alg.build_s", "s", Always);
    ("theta_alg.overlay_edges", "count", Always);
    ("conflict.build_s", "s", Always);
    ("conflict.build_minor_mw", "Mw", Always);
    ("conflict.pairs", "count", Always);
    ("conflict.coloring_s", "s", Coloring);
    ("workload.certify_s", "s", Always);
    ("workload.certify_minor_mw", "Mw", Always);
    ("workload.accept_ratio", "ratio", Always);
    ("engine.run_s", "s", Always);
    ("engine.decide_s", "s", Always);
    ("engine.apply_s", "s", Always);
    ("engine.unspanned_s", "s", Always);
    ("engine.step_us_p50", "us", Always);
    ("engine.step_us_p99", "us", Always);
    ("engine.minor_words_per_step", "words/step", Always);
    ("engine.delivered_per_send", "ratio", Always);
    ("engine.collision_ratio", "ratio", Always);
    ("mac.select_s", "s", With_mac);
    ("mac.grant_ratio", "ratio", With_mac);
    ("pool.items", "count", Always);
    ("pool.busy_max_s", "s", Always);
    ("trace.overhead_ratio", "ratio", Always);
    ("host.ref_ms", "ms", Always);
  ]

(* Per-layer values of one traced trial, read from the spans opened in
   [compose], the library's engine/mac spans and counters, the Domprof
   timeline and the per-step times.  Minor words are the owner domain's
   (OCaml 5 counts them per domain). *)
let layer_values w (sink : Obs.sink) dp ~step_us o =
  let totals = Obs.Span.totals sink.Obs.spans in
  let sum_spans keep f =
    List.fold_left
      (fun acc (t : Obs.Span.total) -> if keep t.Obs.Span.label then acc +. f t else acc)
      0. totals
  in
  let secs l = sum_spans (String.equal l) (fun t -> t.Obs.Span.seconds) in
  let mwords l = sum_spans (String.equal l) (fun t -> t.Obs.Span.minor_words) in
  let snapshot = Obs.Metrics.snapshot sink.Obs.metrics in
  let counter keep =
    List.fold_left
      (fun acc (name, v) ->
        match v with Obs.Metrics.Counter c when keep name -> acc + c | _ -> acc)
      0 snapshot
  in
  let mac_counter suffix =
    counter (fun name -> String.starts_with ~prefix:"mac." name && String.ends_with ~suffix name)
  in
  let f = float_of_int in
  let ratio a b = if b = 0 then 0. else f a /. f b in
  let s = o.stats in
  let run_s = secs "engine.run" in
  let decide = secs "engine/decide" and apply = secs "engine/apply" in
  let mac = sum_spans (String.starts_with ~prefix:"mac/") (fun t -> t.Obs.Span.seconds) in
  let busy_max =
    Option.fold ~none:0. ~some:(fun p -> p.Obs.Domprof.busy_max) (Obs.Domprof.summary dp)
  in
  [
    ("udg.critical_range_s", secs "udg.critical_range");
    ("udg.build_s", secs "udg.build");
    ("theta_alg.build_s", secs "theta_alg.build");
    ("theta_alg.overlay_edges", f (Graph.num_edges o.overlay));
    ("conflict.build_s", secs "conflict.build");
    ("conflict.build_minor_mw", mwords "conflict.build" /. 1e6);
    ("conflict.pairs", f (conflict_pairs o.conflict));
    ("conflict.coloring_s", secs "conflict.coloring");
    ("workload.certify_s", secs "workload.certify");
    ("workload.certify_minor_mw", mwords "workload.certify" /. 1e6);
    ("workload.accept_ratio", ratio o.opt.Workload.deliveries w.attempts);
    ("engine.run_s", run_s);
    ("engine.decide_s", decide);
    ("engine.apply_s", apply);
    ("engine.unspanned_s", run_s -. decide -. apply -. mac);
    ("engine.step_us_p50", percentile step_us 0.50);
    ("engine.step_us_p99", percentile step_us 0.99);
    ("engine.minor_words_per_step", mwords "engine.run" /. f (max 1 s.Engine.steps));
    ("engine.delivered_per_send", ratio s.Engine.delivered s.Engine.sends);
    ("engine.collision_ratio", ratio s.Engine.failed_sends s.Engine.sends);
    ("mac.select_s", mac);
    ("mac.grant_ratio", ratio (mac_counter ".granted") (mac_counter ".requests"));
    ("pool.items", f (counter (String.equal "pool.items")));
    ("pool.busy_max_s", busy_max);
  ]

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Hand-rolled, like the rest of the bench: the toolchain ships no JSON
   library.  The reader covers what this program and BENCHMARK.json
   write. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let quote b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num x ->
        if Float.is_finite x then Printf.bprintf b "%.17g" x else Buffer.add_string b "null"
    | Str s -> quote b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            quote b k;
            Buffer.add_char b ':';
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 1024 in
    write b t;
    Buffer.contents b

  exception Parse_error of string

  let parse s =
    let pos = ref 0 and len = String.length s in
    let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
    let peek () = if !pos < len then s.[!pos] else '\000' in
    let rec skip () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
    in
    let expect c =
      skip ();
      if Char.equal (peek ()) c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let k = String.length word in
      if !pos + k <= len && String.equal (String.sub s !pos k) word then begin
        pos := !pos + k;
        v
      end
      else fail "bad literal"
    in
    let string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> ()
        | '\\' ->
            if !pos >= len then fail "bad escape";
            let e = s.[!pos] in
            incr pos;
            (match e with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 > len then fail "bad \\u escape";
                (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some code -> Buffer.add_utf_8_uchar b (Uchar.of_int code)
                | None -> fail "bad \\u escape");
                pos := !pos + 4
            | c -> Buffer.add_char b c);
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      while
        !pos < len
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "bad number"
    in
    let rec value () =
      skip ();
      match peek () with
      | '{' ->
          incr pos;
          skip ();
          if Char.equal (peek ()) '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              let k = string () in
              expect ':';
              let acc = (k, value ()) :: acc in
              skip ();
              match peek () with
              | ',' ->
                  incr pos;
                  members acc
              | '}' ->
                  incr pos;
                  Obj (List.rev acc)
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | '[' ->
          incr pos;
          skip ();
          if Char.equal (peek ()) ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec items acc =
              let acc = value () :: acc in
              skip ();
              match peek () with
              | ',' ->
                  incr pos;
                  items acc
              | ']' ->
                  incr pos;
                  Arr (List.rev acc)
              | _ -> fail "expected ',' or ']'"
            in
            items []
      | '"' -> Str (string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    let v = value () in
    skip ();
    if !pos <> len then fail "trailing data";
    v

  let load file = parse (read_file file)
  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let list = function Some (Arr xs) -> xs | _ -> []
  let str = function Some (Str s) -> s | _ -> ""
  let num = function Some (Num x) -> x | _ -> Float.nan
end

let schema = "adhoc-e2e/1"

(* ------------------------------------------------------------------ *)
(* Running one workload                                                *)

type opts = {
  seed : int;
  seconds : float;  (** > 0: run rounds until this budget is used (at least 3) *)
  trials : int;  (** rounds without --seconds; 0 = default (5, or 3 traced) *)
  traced : bool;
  json : string;
  scale : int;
  pins : string;
  write_pins : bool;
}

(* VmHWM of this process: the workload's peak resident set. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
                 | [] -> None)
             | _ -> None)
      |> Option.value ~default:Float.nan

let series_json (name, unit, xs) =
  let q1, q3 = quartiles xs in
  Json.Obj
    [
      ("name", Json.Str name);
      ("unit", Json.Str unit);
      ("median", Json.Num (median xs));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Int (List.length xs));
      ("samples", Json.Arr (List.map (fun x -> Json.Num x) xs));
    ]

let write_json file runs =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("schema", Json.Str schema); ("runs", Json.Arr runs) ]));
      output_char oc '\n')

let run_workload opts w0 =
  let w = scaled opts.scale w0 in
  Pool.with_pool ~jobs @@ fun pool ->
  let rng = Prng.create opts.seed in
  let points = make_points rng w in
  let inputs = (points, rng) in
  let digest_of = digest w ~seed:opts.seed ~scale:opts.scale in
  let expected = digest_of (warm_up w ~pool inputs) in
  (* Read here, the peak does not depend on how many trials the budget allows. *)
  let peak_rss = peak_rss_mb () in
  let pin = pin_file ~pins:opts.pins ~scale:opts.scale w in
  if opts.write_pins then begin
    Out_channel.with_open_bin pin (fun oc -> output_string oc expected);
    Printf.printf "wrote %s\n" pin;
    0
  end
  else begin
    let attempted = ref 1 and failed = ref 0 in
    if opts.seed = default_seed then begin
      match read_file pin with
      | pinned when String.equal pinned expected -> ()
      | pinned ->
          incr failed;
          report_mismatch (w.name ^ " warm-up vs " ^ pin) ~expected:pinned ~got:expected
      | exception Sys_error msg ->
          incr failed;
          Printf.eprintf "e2e: %s: no pinned digest (%s)\n%!" w.name msg
    end;
    (* One checked trial: its digest must equal the warm-up's. *)
    let checked run =
      incr attempted;
      match run () with
      | o, times, layers ->
          let got = digest_of o in
          if String.equal got expected then Some (times, layers)
          else begin
            incr failed;
            report_mismatch (w.name ^ " trial vs warm-up") ~expected ~got;
            None
          end
      | exception e ->
          incr failed;
          Printf.eprintf "e2e: %s: trial raised %s\n%!" w.name (Printexc.to_string e);
          None
    in
    (* Also returns the mean time of the reference jobs around the trial. *)
    let untraced () =
      let before = reference_s () in
      let o, t = compose w ~pool inputs in
      let after = reference_s () in
      (o, (t, (before +. after) /. 2.), [])
    in
    let traced () =
      let dp = Obs.Domprof.create () in
      let sink = Obs.create ~domprof:dp ~gc:true () in
      let step_us = Array.make (w.horizon + w.cooldown) 0. in
      Obs.attach_pool sink pool;
      Fun.protect
        ~finally:(fun () -> Obs.detach_pool pool)
        (fun () ->
          let o, t = compose w ~pool ~obs:sink ~timer:step_us inputs in
          (o, t, layer_values w sink dp ~step_us o))
    in
    let plain = ref [] and with_trace = ref [] and round_s = ref [] in
    let round () =
      Option.iter (fun (t, _) -> plain := t :: !plain) (checked untraced);
      if opts.traced then Option.iter (fun r -> with_trace := r :: !with_trace) (checked traced)
    in
    let target = if opts.trials > 0 then opts.trials else if opts.traced then 3 else 5 in
    let start = now () in
    let more () =
      let k = List.length !round_s in
      if opts.seconds > 0. then k < 3 || now () -. start +. median !round_s <= opts.seconds
      else k < target
    in
    while more () do
      let t = now () in
      round ();
      round_s := (now () -. t) :: !round_s
    done;
    let plain = List.rev !plain and with_trace = List.rev !with_trace in
    let steps = float_of_int (w.horizon + w.cooldown) in
    let walls ts = List.map (fun t -> t.wall) ts in
    let times = List.map fst plain in
    let e2e =
      [
        ("wall_ref", "ref", List.map (fun (t, r) -> t.wall /. r) plain);
        ("setup_s", "s", List.map (fun t -> t.setup) times);
        ("steps_per_ref", "steps/ref", List.map (fun (t, r) -> steps *. r /. t.engine) plain);
        ("peak_rss_mb", "MB", [ peak_rss ]);
        ("wall_s", "s", walls times);
        ("steps_per_s", "steps/s", List.map (fun t -> steps /. t.engine) times);
        ("failed_frac", "ratio", [ float_of_int !failed /. float_of_int !attempted ]);
      ]
    in
    let layers =
      if not opts.traced then []
      else
        List.filter_map
          (fun (name, unit, p) ->
            if not (present w p) then None
            else if String.equal name "trace.overhead_ratio" then
              Some
                ( name,
                  unit,
                  [ median (walls (List.map fst with_trace)) /. median (walls times) ] )
            else if String.equal name "host.ref_ms" then
              Some (name, unit, List.map (fun (_, r) -> 1000. *. r) plain)
            else Some (name, unit, List.filter_map (fun (_, l) -> List.assoc_opt name l) with_trace))
          per_layer
    in
    let series = e2e @ layers in
    Printf.printf "# %s seed=%d scale=%d n=%d jobs=%d rounds=%d traced=%b\n" w.name opts.seed
      opts.scale w.n jobs (List.length !round_s) opts.traced;
    List.iter
      (fun (name, unit, xs) ->
        let q1, q3 = quartiles xs in
        Printf.printf "%s %s %.6g %s q1=%.6g q3=%.6g n=%d\n" w.name name (median xs) unit q1 q3
          (List.length xs))
      series;
    if not (String.equal opts.json "") then
      write_json opts.json
        [
          Json.Obj
            [
              ("workload", Json.Str w.name);
              ("seed", Json.Int opts.seed);
              ("scale", Json.Int opts.scale);
              ("traced", Json.Bool opts.traced);
              ("jobs", Json.Int jobs);
              ("attempted", Json.Int !attempted);
              ("failed", Json.Int !failed);
              ("digest", Json.Str expected);
              ("metrics", Json.Arr (List.map series_json series));
            ];
        ];
    (* The last stdout line: the metrics BENCHMARK.json lists, as medians. *)
    let listed =
      if opts.traced then
        List.filter_map (fun (n, _, p) -> match p with Always -> Some n | _ -> None) per_layer
      else List.map fst end_to_end
    in
    let metrics =
      List.filter_map
        (fun (name, unit, xs) ->
          if List.mem name listed then
            Some (name, Json.Obj [ ("value", Json.Num (median xs)); ("unit", Json.Str unit) ])
          else None)
        series
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (!failed = 0));
              ("attempted", Json.Int !attempted);
              ("failed", Json.Int !failed);
              ("metrics", Json.Obj metrics);
            ]));
    if !failed = 0 then 0 else 1
  end

(* Without --workload: each workload in a fresh child process, one after
   another, with the same options; --json merges the children's runs. *)
let run_all opts =
  let exe = Sys.executable_name in
  let common =
    [ "--seed"; string_of_int opts.seed; "--scale"; string_of_int opts.scale; "--pins"; opts.pins ]
    @ (if opts.seconds > 0. then [ "--seconds"; Printf.sprintf "%.17g" opts.seconds ] else [])
    @ (if opts.trials > 0 then [ "--trials"; string_of_int opts.trials ] else [])
    @ (if opts.traced then [ "--traced" ] else [])
    @ if opts.write_pins then [ "--write-pins" ] else []
  in
  let results =
    List.map
      (fun w ->
        let part =
          if String.equal opts.json "" then None
          else Some (Printf.sprintf "%s.%s.part" opts.json w.name)
        in
        let args =
          (exe :: "--workload" :: w.name :: common)
          @ match part with Some p -> [ "--json"; p ] | None -> []
        in
        flush stdout;
        flush stderr;
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
        if not ok then Printf.eprintf "e2e: workload %s failed\n%!" w.name;
        (ok, part))
      workloads
  in
  if not (String.equal opts.json "") then
    write_json opts.json
      (List.concat_map
         (fun (_, part) ->
           match part with
           | Some p when Sys.file_exists p ->
               let runs = Json.list (Json.member "runs" (Json.load p)) in
               Sys.remove p;
               runs
           | _ -> [])
         results);
  let bad = List.length (List.filter (fun (ok, _) -> not ok) results) in
  Printf.printf "e2e: %d workloads, %d failed\n" (List.length workloads) bad;
  if bad = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

let named key j =
  List.map
    (fun m -> (Json.str (Json.member "name" m), Json.str (Json.member "unit" m)))
    (Json.list (Json.member key j))

(* The names and units BENCHMARK.json lists must be the ones this program
   reports, in the same order. *)
let check_benchmark file =
  let j = Json.load file in
  let same what got want =
    let show l = String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) l) in
    if got = want then true
    else begin
      Printf.eprintf "e2e: %s in %s: %s\n  expected: %s\n" what file (show got) (show want);
      false
    end
  in
  let ok_w = same "workloads" (named "workloads" j) (List.map (fun w -> (w.name, "")) workloads) in
  let ok_e = same "end_to_end" (named "end_to_end" j) end_to_end in
  let ok_l =
    same "per_layer" (named "per_layer" j)
      (List.filter_map (fun (n, u, p) -> match p with Always -> Some (n, u) | _ -> None) per_layer)
  in
  ok_w && ok_e && ok_l

(* --agree A B: every workload × end-to-end metric of A's untraced runs
   must have a median in B within the metric's BENCHMARK.json bound, and
   neither run may have failed trials. *)
let agree ~benchmark a b =
  let bounds =
    List.map
      (fun m -> (Json.str (Json.member "name" m), Json.num (Json.member "bound" m)))
      (Json.list (Json.member "end_to_end" (Json.load benchmark)))
  in
  let runs file =
    List.filter
      (fun r -> not (Json.member "traced" r = Some (Json.Bool true)))
      (Json.list (Json.member "runs" (Json.load file)))
  in
  let ra = runs a and rb = runs b in
  let ok = ref (ra <> []) in
  let workload r = Json.str (Json.member "workload" r) in
  let metric r name =
    List.find_opt
      (fun m -> String.equal (Json.str (Json.member "name" m)) name)
      (Json.list (Json.member "metrics" r))
  in
  List.iter
    (fun r ->
      let name = workload r in
      match List.find_opt (fun r' -> String.equal (workload r') name) rb with
      | None ->
          ok := false;
          Printf.printf "%s missing from %s\n" name b
      | Some r' ->
          List.iter
            (fun (m, bound) ->
              match (metric r m, metric r' m) with
              | Some x, Some y ->
                  let x = Json.num (Json.member "median" x) and y = Json.num (Json.member "median" y) in
                  let d = (y -. x) /. x in
                  let within = Float.abs d <= bound in
                  if not within then ok := false;
                  Printf.printf "%s %s A=%.6g B=%.6g diff=%+.1f%% bound=%g%% %s\n" name m x y
                    (100. *. d) (100. *. bound)
                    (if within then "ok" else "OUTSIDE")
              | _ ->
                  ok := false;
                  Printf.printf "%s %s missing\n" name m)
            bounds;
          List.iter
            (fun (file, r) ->
              let f = Json.num (Json.member "failed" r) in
              if not (Float.equal f 0.) then begin
                ok := false;
                Printf.printf "%s %s: %g failed trials\n" name file f
              end)
            [ (a, r); (b, r') ])
    ra;
  print_endline (if !ok then "agree: ok" else "agree: DISAGREE");
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 0. and trials = ref 0 in
  let traced = ref false and json = ref "" and scale = ref 1 in
  let pins = ref "bench/e2e/expected" and write_pins = ref false in
  let benchmark = ref "" and agree_a = ref "" and agree_b = ref "" in
  let spec =
    Arg.align
      [
        ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
        ("--seed", Arg.Set_int seed, "S input seed (default 1, the pinned one)");
        ("--seconds", Arg.Set_float seconds, "S time rounds for S seconds after the warm-up");
        ("--trials", Arg.Set_int trials, "K rounds without --seconds (default 5, traced 3)");
        ("--traced", Arg.Set traced, " add traced trials and report per-layer metrics");
        ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 --trace 1 is --traced");
        ("--json", Arg.Set_string json, "FILE write medians, quartiles and per-trial samples");
        ("--scale", Arg.Set_int scale, "K divide sizes and horizons by K");
        ("--pins", Arg.Set_string pins, "DIR pinned digests (default bench/e2e/expected)");
        ("--write-pins", Arg.Set write_pins, " write the warm-up digests into --pins");
        ("--benchmark", Arg.Set_string benchmark, "FILE check names against this BENCHMARK.json");
        ( "--agree",
          Arg.Tuple [ Arg.Set_string agree_a; Arg.Set_string agree_b ],
          "A.json B.json compare two runs against BENCHMARK.json's bounds" );
      ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e [--workload NAME] [--seed S] [--seconds S | --trials K] [--traced] [--json FILE]\n\
     e2e --agree A.json B.json [--benchmark BENCHMARK.json]";
  let opts =
    {
      seed = !seed;
      seconds = !seconds;
      trials = !trials;
      traced = !traced;
      json = !json;
      scale = max 1 !scale;
      pins = !pins;
      write_pins = !write_pins;
    }
  in
  if not (String.equal !agree_a "") then
    exit
      (agree
         ~benchmark:(if String.equal !benchmark "" then "BENCHMARK.json" else !benchmark)
         !agree_a !agree_b);
  if (not (String.equal !benchmark "")) && not (check_benchmark !benchmark) then exit 2;
  if String.equal !workload "" then exit (run_all opts)
  else
    match find_workload !workload with
    | Some w -> exit (run_workload opts w)
    | None ->
        Printf.eprintf "e2e: unknown workload %s (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
