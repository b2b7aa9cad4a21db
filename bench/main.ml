(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- e5 e7     # run selected experiments
     dune exec bench/main.exe -- quick     # skip the slowest routing sweeps
     dune exec bench/main.exe -- quick --json out.json
                                           # also write machine-readable results
     dune exec bench/main.exe -- quick --chrome-trace-dir traces
                                           # + one Chrome trace-event file per experiment

   Experiment ids: e1..e20 (paper claims and extensions), b1
   (micro-benchmarks), b2 (multicore scaling sweep), b3 (live streaming
   telemetry probe), b4 (routing-throughput scaling sweep).

   --jobs N sizes the shared domain pool (default
   Pool.default_jobs (), i.e. the machine's recommended domain count
   clamped).  Every metric is bit-identical for every N; only wall-clock
   changes.

   --json FILE writes one object per executed experiment (schema
   adhoc-bench/6): its id, title, wall-clock seconds, the headline metrics
   the experiment recorded, the observability layer's span timings (with
   per-span GC deltas) and metric snapshot, the live-telemetry cumulative
   summary when the experiment ran an Obs.Live recorder ("live", null
   otherwise), and a pointer to the experiment's chrome-trace file when
   --chrome-trace-dir was given (see EXPERIMENTS.md for the schema). *)

module Obs = Adhoc.Obs
module Json = Adhoc.Util.Json

let all : (string * string * (unit -> unit)) list =
  [
    ("e1", "Lemma 2.1: connectivity + degree bound", Exp_topology.e1);
    ("e2", "Theorem 2.2: O(1) energy-stretch", Exp_topology.e2);
    ("e3", "Theorem 2.7: distance-stretch, civilized", Exp_topology.e3);
    ("e4", "open problem: non-civilized distance-stretch", Exp_topology.e4);
    ("e5", "Lemma 2.10: interference number O(log n)", Exp_interference.e5);
    ("e6", "Thm 2.8/Lem 2.9: theta-path replacement", Exp_interference.e6);
    ("e7", "Theorem 3.1: balancing vs OPT, MAC given", Exp_routing.e7);
    ("e8", "Thm 3.3/Lem 3.2: random MAC", Exp_routing.e8);
    ("e9", "Corollary 3.5: end-to-end vs n", Exp_routing.e9);
    ("e10", "Theorem 3.8: honeycomb algorithm", Exp_routing.e10);
    ("e11", "baseline topology comparison", Exp_baselines.e11);
    ("e12", "intro claim: kNN vs ThetaALG", Exp_extensions.e12);
    ("e13", "ablation: theta sweep + latency", Exp_extensions.e13);
    ("e14", "related work: geographic routing", Exp_extensions.e14);
    ("e15", "related work: queueing disciplines", Exp_extensions.e15);
    ("e16", "model fidelity: protocol vs SINR", Exp_extensions.e16);
    ("e17", "maintenance locality under motion", Exp_extensions.e17);
    ("e18", "extension: cost-aware anycast", Exp_extensions.e18);
    ("e19", "Section 3.2 remark: reduced control traffic", Exp_extensions.e19);
    ("e20", "context: Gupta-Kumar capacity scaling", Exp_extensions.e20);
    ("b1", "micro-benchmarks", Micro.run);
    ("b2", "multicore scaling sweep", Exp_scaling.run);
    ("b3", "live streaming telemetry probe", Exp_routing.b3);
    ("b4", "routing-throughput scaling sweep", Exp_throughput.run);
    ("figures", "SVG figures for key experiments", Figures.run);
  ]

(* "figures" writes files, so it is opt-in rather than part of the default
   full run. *)
let default_set = List.filter (fun (id, _, _) -> id <> "figures") all

(* b2 is part of quick so bench-smoke exercises the sharded builders at the
   full size sweep (up to n = 65536) and json_check can pin its structural
   edges:* metrics and pool counters against the baseline; b3 is part of
   quick so every baseline carries a non-null "live" member for json_check
   to shape-check and pin; b4 is part of quick so the parallel routing
   step loop's throughput metrics, pool counters and bit-identity pins
   are in every baseline too. *)
let quick_set = [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e11"; "e12"; "e14"; "e15"; "e16"; "e17"; "e18"; "b1"; "b2"; "b3"; "b4" ]

(* Extract "--opt VALUE" from anywhere in the argument list. *)
let rec split_opt name acc = function
  | flag :: value :: rest when flag = name -> (Some value, List.rev_append acc rest)
  | [ flag ] when flag = name ->
      Printf.eprintf "%s requires an argument\n" name;
      exit 1
  | a :: rest -> split_opt name (a :: acc) rest
  | [] -> (None, List.rev acc)

(* One executed experiment, with everything the v2 schema embeds. *)
type outcome = {
  id : string;
  title : string;
  seconds : float;
  metrics : (string * Json.t) list;  (* the experiment's headline numbers *)
  spans : Obs.Span.total list;
  obs_snapshot : (string * Obs.Metrics.value) list;
  live : Json.t;  (* cumulative live-telemetry summary, or Null *)
  chrome_file : string option;
}

let span_json (s : Obs.Span.total) =
  let open Json in
  Obj
    [
      ("label", Str s.Obs.Span.label);
      ("count", int s.Obs.Span.count);
      ("seconds", float s.Obs.Span.seconds);
      ("self_seconds", float s.Obs.Span.self_seconds);
      ("gc_minor_words", float s.Obs.Span.minor_words);
      ("gc_promoted_words", float s.Obs.Span.promoted_words);
      ("gc_minor_collections", int s.Obs.Span.minor_collections);
      ("gc_major_collections", int s.Obs.Span.major_collections);
    ]

let metric_value_json v =
  let open Json in
  match v with
  | Obs.Metrics.Counter c -> int c
  | Obs.Metrics.Gauge g -> float g
  | Obs.Metrics.Histogram { buckets; counts; total; sum } ->
      Obj
        [
          ("buckets", Arr (Array.to_list (Array.map float buckets)));
          ("counts", Arr (Array.to_list (Array.map int counts)));
          ("total", int total);
          ("sum", float sum);
        ]

let outcome_json o =
  let open Json in
  Obj
    [
      ("id", Str o.id);
      ("title", Str o.title);
      ("seconds", float o.seconds);
      ("metrics", Obj o.metrics);
      ("spans", Arr (List.map span_json o.spans));
      ("obs", Obj (List.map (fun (n, v) -> (n, metric_value_json v)) o.obs_snapshot));
      ("live", o.live);
      ("chrome_trace", match o.chrome_file with None -> Null | Some f -> Str f);
    ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json_file, args = split_opt "--json" [] args in
  let chrome_dir, args = split_opt "--chrome-trace-dir" [] args in
  let jobs_arg, args = split_opt "--jobs" [] args in
  let jobs =
    match jobs_arg with
    | None -> Adhoc.Util.Pool.default_jobs ()
    | Some s -> (
        match int_of_string_opt s with
        | Some j when j >= 1 -> j
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" s;
            exit 1)
  in
  (* Open the output up front so a bad path fails before hours of
     experiments, not after. *)
  let json_out =
    match json_file with
    | None -> None
    | Some file -> (
        try Some (file, open_out file)
        with Sys_error msg ->
          Printf.eprintf "--json: %s\n" msg;
          exit 1)
  in
  let ensure_dir flag dir =
    if not (Sys.file_exists dir) then
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "%s: %s: %s\n" flag dir (Unix.error_message e);
        exit 1
  in
  Option.iter (ensure_dir "--chrome-trace-dir") chrome_dir;
  let selected =
    match args with
    | [] -> List.map (fun (id, _, _) -> id) default_set
    | [ "quick" ] -> quick_set
    | ids -> ids
  in
  print_endline "Reproduction harness: Jia, Rajaraman, Scheideler (SPAA 2003),";
  print_endline "\"On Local Algorithms for Topology Control and Routing in Ad Hoc Networks\".";
  let pool = Adhoc.Util.Pool.create ~jobs () in
  Common.pool := Some pool;
  Printf.printf "domain pool: %d job%s\n" (Adhoc.Util.Pool.jobs pool)
    (if Adhoc.Util.Pool.jobs pool = 1 then "" else "s");
  let results = ref [] in
  List.iter
    (fun id ->
      match List.find_opt (fun (i, _, _) -> i = id) all with
      | Some (_, title, f) ->
          ignore (Common.take_metrics ());
          ignore (Common.take_live ());
          (* A fresh sink and recorder per experiment so spans, metrics and
             Chrome exports are attributed to exactly one run; experiments
             pick the sink up through Common.current_obs.  GC span deltas
             are always on here — the harness is measuring anyway. *)
          let domprof = Option.map (fun _ -> Obs.Domprof.create ()) chrome_dir in
          let sink = Obs.create ?domprof ~gc:true () in
          Common.obs_sink := Some sink;
          (* Pool regions surface as "pool/<label>" spans and counters in
             this experiment's snapshot; only top-level owner-domain
             regions fire hooks, so the snapshot is jobs-invariant. *)
          Obs.attach_pool sink pool;
          let t0 = Unix.gettimeofday () in
          f ();
          let seconds = Unix.gettimeofday () -. t0 in
          Obs.detach_pool pool;
          Common.obs_sink := None;
          let chrome_file =
            match (chrome_dir, domprof) with
            | Some dir, Some dp when Obs.Domprof.length dp > 0 ->
                let file = Filename.concat dir (id ^ ".trace.json") in
                Obs.Chrome_trace.save ~process_name:("adhoc bench " ^ id) dp file;
                Some file
            | _ -> None
          in
          results :=
            {
              id;
              title;
              seconds;
              metrics = Common.take_metrics ();
              spans = Obs.Span.totals sink.Obs.spans;
              obs_snapshot = Obs.Metrics.snapshot sink.Obs.metrics;
              live = Common.take_live ();
              chrome_file;
            }
            :: !results
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", " (List.map (fun (i, _, _) -> i) all));
          exit 1)
    selected;
  (match json_out with
  | None -> ()
  | Some (file, oc) ->
      let open Json in
      let doc =
        Obj
          [
            ("schema", Str "adhoc-bench/6");
            ("jobs", int (Adhoc.Util.Pool.jobs pool));
            ("experiments", Arr (List.rev_map outcome_json !results));
          ]
      in
      output_string oc (to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" file);
  Common.pool := None;
  Adhoc.Util.Pool.shutdown pool;
  print_newline ()
