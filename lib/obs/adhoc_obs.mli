(** Observability: a zero-dependency metrics / profiling / tracing layer.

    The engines, MACs and the pipeline accept an optional {!sink}; passing
    [None] (the default everywhere) keeps the hot paths allocation-free
    and bit-identical to the uninstrumented behaviour — instrumentation
    sites are a single [match] on the option.  A sink bundles:

    - {!Metrics} — named counters, gauges and fixed-bucket histograms,
      O(1) updates, exported with [Metrics.snapshot];
    - {!Span} — nestable wall-clock timing scopes accumulated per label
      ([prepare], [workload/certify], [engine/…], [mac/…]), optionally
      with per-span {!Gcstat} deltas ([create ~gc:true]);
    - {!Event} — an optional per-packet event log (inject / send /
      deliver / collide / epoch / advert), the flight recorder behind
      [adhoc_sim analyze], the {!Invariants} checker and the {!Live}
      step-keyed windows (the per-step series: attach a recorder to the
      log with [Live.attach]); the analyzer and {!Live} count packets
      through one {!Mirror};
    - {!Domprof} — an optional per-domain profiling timeline fed by the
      pool's region/chunk hooks and the span profiler, exportable as a
      Chrome/Perfetto trace via {!Chrome_trace} (see
      [adhoc_sim route --chrome-trace]).

    Supporting modules: {!Clock} is the layer's single sanctioned
    wall-clock site; {!Gcstat} its single [Gc.*] window (lint rules
    wall-clock / raw-gc).

    Typical use:
    {[
      let dp = Adhoc_obs.Domprof.create () in
      let events = Adhoc_obs.Event.create () in
      let live = Adhoc_obs.Live.create ~window:1 () in
      Adhoc_obs.Live.attach live events;
      let obs = Adhoc_obs.create ~events ~domprof:dp ~gc:true () in
      Adhoc_obs.attach_pool obs pool;
      let r = Pipeline.run_scenario1 ~obs ~rng built in
      Adhoc_obs.Chrome_trace.save dp "profile.trace.json";
      Adhoc_obs.Live.save_jsonl live "steps.jsonl";
      List.iter … (Adhoc_obs.Span.totals obs.spans)
    ]} *)

module Metrics = Metrics
module Span = Span
module Event = Event
module Invariants = Invariants
module Sketch = Sketch
module Topk = Topk
module Mirror = Mirror
module Live = Live
module Clock = Clock
module Gcstat = Gcstat
module Domprof = Domprof
module Chrome_trace = Chrome_trace

type sink = {
  metrics : Metrics.t;
  spans : Span.t;
  events : Event.log option;  (** no per-packet event log unless provided *)
  domprof : Domprof.t option;  (** no per-domain timeline unless provided *)
}

val create : ?events:Event.log -> ?domprof:Domprof.t -> ?gc:bool -> unit -> sink
(** A sink with fresh metrics and span state.  [~gc:true] turns on
    per-span GC deltas (default off); [~domprof] threads the recorder
    into the span profiler (span instances become timeline scopes) and
    makes it the default recorder for {!attach_pool}. *)

val events : sink option -> Event.log option
(** The sink's event log, when both are present — the single [match] the
    engines hoist out of their hot loops. *)

val time : sink option -> string -> (unit -> 'a) -> 'a
(** [time obs label f] runs [f] inside a span when [obs] is [Some], and
    just runs it otherwise.  For coarse scopes; inside per-step loops the
    engines match on the option and use {!Span.enter} / {!Span.leave}
    directly to stay allocation-free when disabled. *)

val attach_pool : ?domprof:Domprof.t -> sink -> Adhoc_util.Pool.t -> unit
(** Instrument a domain pool against this sink.  Each top-level parallel
    region opens a [pool/<label>] span, bumps the [pool.regions] /
    [pool.items] counters, observes its chunk sizes into the
    [pool.chunk_items] histogram and accumulates a {!Gcstat} delta into
    the [gc.pool.*] counters.  When a recorder is present ([~domprof]
    overrides the sink's), regions and chunks are additionally recorded
    on the per-domain timeline — chunk events fire on the executing
    domain and touch only that slot's single-writer lane; everything
    shared (metrics, spans) is owner-domain-only.

    Jobs-invariance: region/item counts and span counts are identical for
    every [--jobs]; chunk counts/sizes and [gc.pool.*] deltas are
    honest functions of the pool size (and, for GC, of runtime state), so
    [json_check --compare] pins the former exactly and relaxes the
    latter. *)

val detach_pool : Adhoc_util.Pool.t -> unit
(** Clear a pool's instrumentation hooks (e.g. before the sink is
    discarded while the pool lives on). *)
