(* Well-formedness check for the bench harness's --json output and the
   other JSON documents the tools write.

   It carries no parser of its own: every document is read by the
   library's strict JSON reader (Adhoc.Util.Json, which the event-log
   loader uses too: RFC 8259 numbers and escapes, no repeated member
   name, nothing after the value).  Beyond syntax it checks the
   adhoc-bench/6 shape: a top-level object whose "schema" is
   "adhoc-bench/6", whose "jobs" member is the numeric domain-pool size
   the run used, and whose "experiments" member is a non-empty array of
   objects each carrying "id", "seconds", "metrics", well-formed "spans"
   (label / count / seconds), an "obs" metric snapshot, a "live" member
   (the live-telemetry cumulative summary, or null for experiments that
   ran no recorder) and a "chrome_trace" pointer (string or null).
   Documents written before the per-step trace recorder was folded into
   the live windows also carry "trace": null; nothing reads it.  The B2
   and B4 scaling experiments must additionally snapshot nonzero
   pool.regions / pool.items counters — zero means the sweep's per-jobs
   pools were not attached to the obs sink — and record at
   least one nonzero "pool.imbalance:*" and one nonzero "gc:*" headline
   metric (zeros mean the profiled pass never ran); B4 must also record
   nonzero "steps_per_sec:*" / "decisions_per_sec:*" throughput metrics
   and its "bitident:*" pins (1 only after the event-log / live-stream
   byte comparison across the jobs grid passed); B3 and E7 must carry a
   non-null "live" summary (null means the live probe silently didn't
   run).  Any other schema, older versions included, is rejected as
   unknown.

     json_check FILE          exits 0 and prints a summary if the file is valid
     json_check --live FILE   validates an adhoc-live/1 snapshot stream
                              (route --live / analyze --replay-live):
                              header, consecutive tumbling windows, one
                              final record whose counters equal the
                              window sums
     json_check --lint FILE   validates an adhoc-lint/2 static-analysis
                              report (rules / diagnostics / waivers shape;
                              rejects reports whose cmt layer did not run)
     json_check --chrome-trace FILE
                              validates a Chrome trace-event export: a
                              {"traceEvents": [...]} document of well-formed
                              "M" / "X" events
     json_check --compare BASELINE CURRENT
                              diffs two adhoc-bench/6 documents: stats must
                              match exactly (whatever --jobs either run
                              used), including the "live" summaries;
                              wall-clock timings and the
                              runtime-derived "pool.imbalance:*" / "gc:*" /
                              "gc.*" / "steps_per_sec:*" /
                              "decisions_per_sec:*" members only warn *)

open Adhoc.Util.Json

(* Numbers keep their literal text; the checks read them as floats. *)
let num = function Num s -> Some (float_of_string s) | _ -> None

let number fields name = Option.bind (List.assoc_opt name fields) num

let positive v = match num v with Some c -> c > 0. | None -> false

let is_num x v = Option.equal Float.equal (num v) (Some x)

let span_ok = function
  | Obj fields -> (
      match
        (List.assoc_opt "label" fields, number fields "count", number fields "seconds")
      with
      | Some (Str _), Some _, Some _ -> true
      | _ -> false)
  | _ -> false

(* The "live" member: the live-telemetry cumulative summary recorded by
   experiments that ran an Obs.Live recorder.  An object must carry the
   fixed counter set, a boolean health verdict and the heavy-hitter
   arrays; null means the experiment ran no recorder. *)
let live_member_ok fields =
  let int_ok name =
    match number fields name with Some v -> Float.is_integer v && v >= 0. | None -> false
  in
  List.for_all int_ok
    [
      "window"; "top_k"; "steps"; "events"; "windows"; "injected"; "dropped"; "delivered";
      "self"; "sends"; "collisions"; "control"; "buffered"; "violations"; "anomalies";
    ]
  && (match List.assoc_opt "healthy" fields with Some (Bool _) -> true | _ -> false)
  && (match List.assoc_opt "top_edges" fields with Some (Arr _) -> true | _ -> false)
  && (match List.assoc_opt "top_nodes" fields with Some (Arr _) -> true | _ -> false)

let experiment_ok = function
  | Obj fields ->
      List.mem_assoc "id" fields
      && List.mem_assoc "seconds" fields
      && List.mem_assoc "metrics" fields
      && (match List.assoc_opt "spans" fields with
         | Some (Arr spans) -> List.for_all span_ok spans
         | _ -> false)
      && (match List.assoc_opt "obs" fields with Some (Obj _) -> true | _ -> false)
      && (match List.assoc_opt "live" fields with
         | Some Null -> true
         | Some (Obj lf) -> live_member_ok lf
         | _ -> false)
      && (match List.assoc_opt "chrome_trace" fields with
         | Some (Str _ | Null) -> true
         | _ -> false)
  | _ -> false

(* The B2 and B4 scaling sweeps time every kernel on an explicit per-jobs
   pool; if a snapshot shows zero pool activity the sweep silently timed
   the sequential fallback (the regression this pin was added for: the
   per-jobs pools were never attached to the experiment's obs sink). *)
let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let pool_counters_ok fields =
  match List.assoc_opt "id" fields with
  | Some (Str (("b2" | "b4") as id)) ->
      let counter name =
        match List.assoc_opt "obs" fields with
        | Some (Obj obs) -> (
            match List.assoc_opt name obs with Some v -> positive v | None -> false)
        | _ -> false
      in
      (* Same spirit for the profiled pass: all-zero imbalance / GC
         headline metrics mean the sweep never actually profiled its
         pools. *)
      let some_metric prefix =
        match List.assoc_opt "metrics" fields with
        | Some (Obj ms) ->
            List.exists
              (fun (name, v) -> starts_with ~prefix name && positive v)
              ms
        | _ -> false
      in
      if not (counter "pool.regions" && counter "pool.items") then
        Error
          (Printf.sprintf "experiment %s must record nonzero pool.regions / pool.items counters"
             id)
      else if not (some_metric "pool.imbalance:") then
        Error (Printf.sprintf "experiment %s must record a nonzero pool.imbalance:* metric" id)
      else if not (some_metric "gc:") then
        Error (Printf.sprintf "experiment %s must record a nonzero gc:* metric" id)
      else Ok ()
  | _ -> Ok ()

(* B4's reason to exist: throughput rates for the parallel routing step
   loop and the cross-jobs bit-identity verdicts.  Zero rates mean the
   timed runs never happened; a missing or non-1 "bitident:*" pin means
   the event-log / live-stream byte comparison was skipped or failed. *)
let b4_throughput_ok fields =
  match List.assoc_opt "id" fields with
  | Some (Str "b4") -> (
      let metrics = match List.assoc_opt "metrics" fields with Some (Obj ms) -> ms | _ -> [] in
      let some_positive prefix =
        List.exists
          (fun (name, v) -> starts_with ~prefix name && positive v)
          metrics
      in
      let bitident = List.filter (fun (name, _) -> starts_with ~prefix:"bitident:" name) metrics in
      if not (some_positive "steps_per_sec:") then
        Error "experiment b4 must record a nonzero steps_per_sec:* metric"
      else if not (some_positive "decisions_per_sec:") then
        Error "experiment b4 must record a nonzero decisions_per_sec:* metric"
      else
        match bitident with
        | [] -> Error "experiment b4 must record its bitident:* pins"
        | pins when List.for_all (fun (_, v) -> is_num 1. v) pins -> Ok ()
        | _ -> Error "experiment b4 recorded a bitident:* pin that is not 1")
  | _ -> Ok ()

(* B3 exists to exercise the live-telemetry layer, and E7 embeds the same
   probe: a null "live" member means the probe silently didn't run. *)
let live_summary_required_ok fields =
  match List.assoc_opt "id" fields with
  | Some (Str (("b3" | "e7") as id)) -> (
      match List.assoc_opt "live" fields with
      | Some (Obj _) -> Ok ()
      | _ ->
          Error
            (Printf.sprintf
               "experiment %s must record a non-null \"live\" summary (the live probe did \
                not run)"
               id))
  | _ -> Ok ()

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_document file =
  match of_string (read_file file) with
  | Error msg ->
      Printf.eprintf "%s: invalid JSON: %s\n" file msg;
      exit 1
  | Ok (Obj fields) -> (
      (match List.assoc_opt "schema" fields with
      | Some (Str "adhoc-bench/6") -> ()
      | Some (Str other) ->
          Printf.eprintf "%s: unknown schema %S (expected \"adhoc-bench/6\")\n" file other;
          exit 1
      | _ ->
          Printf.eprintf "%s: missing \"schema\" member\n" file;
          exit 1);
      (match Option.map num (List.assoc_opt "jobs" fields) with
      | Some (Some j) when Float.is_integer j && j >= 1. -> ()
      | Some _ ->
          Printf.eprintf "%s: \"jobs\" must be a positive integer\n" file;
          exit 1
      | None ->
          Printf.eprintf "%s: missing \"jobs\" member (domain-pool size)\n" file;
          exit 1);
      match List.assoc_opt "experiments" fields with
      | Some (Arr (_ :: _ as exps)) when List.for_all experiment_ok exps ->
          List.iter
            (fun e ->
              let f = match e with Obj f -> f | _ -> [] in
              let check = function
                | Ok () -> ()
                | Error msg ->
                    Printf.eprintf "%s: %s\n" file msg;
                    exit 1
              in
              check (pool_counters_ok f);
              check (b4_throughput_ok f);
              check (live_summary_required_ok f))
            exps;
          Printf.printf "%s: ok (%d experiments)\n" file (List.length exps)
      | Some (Arr []) ->
          Printf.eprintf "%s: no experiments recorded\n" file;
          exit 1
      | _ ->
          Printf.eprintf "%s: missing or malformed \"experiments\" array\n" file;
          exit 1)
  | Ok _ ->
      Printf.eprintf "%s: top-level value is not an object\n" file;
      exit 1

(* --------------------------------------------------------------------- *)
(* Baseline comparison: did the simulation's numbers drift?

   Stats in adhoc-bench/6 documents are deterministic (seeded PRNG), and
   — pool kernels being bit-identical for any jobs — independent of the
   "jobs" the two runs used, so a
   current run's metrics must match a committed baseline exactly; the only
   legitimately machine-dependent members are wall-clock timings and
   runtime telemetry — the experiment's "seconds", span timings,
   micro-benchmark metrics ("ns_per_run:*"), B4's throughput rates
   ("steps_per_sec:*", "decisions_per_sec:*"), B2's and B4's
   profiled-pass figures
   ("pool.imbalance:*", "gc:*" — GC collection counts can drift by a
   cycle run-to-run, so they are relaxed too) and the obs snapshot's
   "gc.*" counters.  Those are compared within a relative tolerance and
   reported as warnings; everything else drifting is an error.  The
   "pool.chunk_items" histogram is jobs-dependent by design, so compare
   runs of the same --jobs (CI pins 2 on both sides). *)

let is_timing_metric name =
  starts_with ~prefix:"ns_per_run:" name
  || starts_with ~prefix:"pool.imbalance:" name
  || starts_with ~prefix:"gc:" name
  || starts_with ~prefix:"steps_per_sec:" name
  || starts_with ~prefix:"decisions_per_sec:" name

(* Obs snapshot members that carry GC telemetry ("gc.pool." counters):
   relaxed the same way — word counts are honest runtime measurements. *)
let is_runtime_obs_metric name = starts_with ~prefix:"gc." name

let load_doc file =
  match of_string (read_file file) with
  | Error msg ->
      Printf.eprintf "%s: invalid JSON: %s\n" file msg;
      exit 1
  | Ok (Obj fields) -> (
      (match List.assoc_opt "schema" fields with
      | Some (Str "adhoc-bench/6") -> ()
      | _ ->
          Printf.eprintf "%s: not an adhoc-bench/6 document\n" file;
          exit 1);
      match List.assoc_opt "experiments" fields with
      | Some (Arr exps) ->
          List.filter_map
            (function
              | Obj f -> (
                  match List.assoc_opt "id" f with
                  | Some (Str id) -> Some (id, f)
                  | _ -> None)
              | _ -> None)
            exps
      | _ ->
          Printf.eprintf "%s: missing \"experiments\" array\n" file;
          exit 1)
  | Ok _ ->
      Printf.eprintf "%s: top-level value is not an object\n" file;
      exit 1

(* Structural equality, numbers compared by value ("1.0" equals "1"). *)
let rec same a b =
  match (a, b) with
  | Num x, Num y -> Float.equal (float_of_string x) (float_of_string y)
  | Arr xs, Arr ys -> List.equal same xs ys
  | Obj xs, Obj ys -> List.equal (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

(* Relative difference beyond which a timing draws a warning. *)
let tolerance = 0.25

let within_tolerance a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.equal scale 0. || Float.abs (a -. b) <= tolerance *. scale

let compare_docs base_file cur_file =
  let base = load_doc base_file and cur = load_doc cur_file in
  let drift = ref 0 and warnings = ref 0 in
  let error id fmt =
    Printf.ksprintf
      (fun msg ->
        incr drift;
        Printf.printf "DRIFT %s: %s\n" id msg)
      fmt
  in
  let warn id fmt =
    Printf.ksprintf
      (fun msg ->
        incr warnings;
        Printf.printf "  warn %s: %s\n" id msg)
      fmt
  in
  let timing id name b c =
    if not (within_tolerance b c) then
      warn id "%s: %.4g -> %.4g (beyond %.0f%% tolerance)" name b c (100. *. tolerance)
  in
  let obj_fields = function Obj f -> f | _ -> [] in
  List.iter
    (fun (id, bf) ->
      match List.assoc_opt id cur with
      | None -> error id "experiment missing from %s" cur_file
      | Some cf ->
          (* Headline metrics: exact unless the name marks a timing. *)
          let bm = obj_fields (Option.value ~default:(Obj []) (List.assoc_opt "metrics" bf))
          and cm = obj_fields (Option.value ~default:(Obj []) (List.assoc_opt "metrics" cf)) in
          List.iter
            (fun (name, bv) ->
              match List.assoc_opt name cm with
              | None -> error id "metric %s missing from current run" name
              | Some cv -> (
                  match (num bv, num cv) with
                  | Some b, Some c when is_timing_metric name -> timing id name b c
                  | _ ->
                      if not (same bv cv) then
                        error id "metric %s: %s -> %s" name (to_string bv) (to_string cv)))
            bm;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name bm) then
                error id "metric %s absent from baseline" name)
            cm;
          (* Observability snapshot: deterministic and exact, except the
             gc.* counters, which are runtime measurements. *)
          let bo = obj_fields (Option.value ~default:(Obj []) (List.assoc_opt "obs" bf))
          and co = obj_fields (Option.value ~default:(Obj []) (List.assoc_opt "obs" cf)) in
          List.iter
            (fun (name, bv) ->
              match List.assoc_opt name co with
              | None -> error id "obs metric %s missing from current run" name
              | Some cv -> (
                  match (num bv, num cv) with
                  | Some b, Some c when is_runtime_obs_metric name ->
                      timing id ("obs " ^ name) b c
                  | _ ->
                      if not (same bv cv) then
                        error id "obs metric %s: %s -> %s" name (to_string bv) (to_string cv)))
            bo;
          (* Live-telemetry summary: a pure function of the event stream
             (step-keyed, jobs-invariant), so it must match exactly. *)
          (match (List.assoc_opt "live" bf, List.assoc_opt "live" cf) with
          | Some bl, Some cl ->
              if not (same bl cl) then
                error id "live summary: %s -> %s" (to_string bl) (to_string cl)
          | None, None -> ()
          | Some _, None -> error id "live member missing from current run"
          | None, Some _ -> error id "live member absent from baseline");
          (* Span timings: machine-dependent; counts are deterministic. *)
          let spans v =
            match List.assoc_opt "spans" v with
            | Some (Arr ss) ->
                List.filter_map
                  (fun s ->
                    let f = obj_fields s in
                    match (List.assoc_opt "label" f, number f "count", number f "seconds") with
                    | Some (Str l), Some n, Some sec -> Some (l, (n, sec))
                    | _ -> None)
                  ss
            | _ -> []
          in
          let bs = spans bf and cs = spans cf in
          List.iter
            (fun (label, (bn, bsec)) ->
              match List.assoc_opt label cs with
              | None -> error id "span %s missing from current run" label
              | Some (cn, csec) ->
                  if bn <> cn then
                    error id "span %s count: %g -> %g" label bn cn
                  else timing id ("span " ^ label) bsec csec)
            bs;
          (match (number bf "seconds", number cf "seconds") with
          | Some b, Some c -> timing id "seconds" b c
          | _ -> ()))
    base;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id base) then error id "experiment absent from baseline")
    cur;
  if !drift = 0 then begin
    Printf.printf "%s vs %s: ok (%d experiments, %d timing warning%s)\n" base_file cur_file
      (List.length base) !warnings
      (if !warnings = 1 then "" else "s");
    exit 0
  end
  else begin
    Printf.printf "%s vs %s: %d stat drift%s\n" base_file cur_file !drift
      (if !drift = 1 then "" else "s");
    exit 1
  end

(* --------------------------------------------------------------------- *)
(* adhoc-lint/2: the static-analysis report written by
   `dune build @lint` (lint/adhoc_lint.ml).  Shape:

     { schema: "adhoc-lint/2", files: n, cmt_units: n, errors: n,
       warnings: n,
       rules:       [ {id, severity: "error"|"warning", layer, count,
                       waived} ... ],
       diagnostics: [ {file, line, col, rule, layer: "parsetree"|"cmt",
                       severity, message} ... ],
       waivers:     [ {file, line, rule, reason} ... ] }

   Every diagnostic's rule must be declared in "rules", every waiver must
   carry a non-empty reason, the error/warning totals must equal the
   diagnostics actually listed, and cmt_units must be positive — a report
   produced without the Typedtree layer (--no-cmt) is rejected, so the CI
   gate cannot silently pass on the weaker Parsetree-only analysis. *)

let check_lint_report file =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1)
      fmt
  in
  let fields =
    match of_string (read_file file) with
    | Error msg -> fail "invalid JSON: %s" msg
    | Ok (Obj fields) -> fields
    | Ok _ -> fail "top-level value is not an object"
  in
  (match List.assoc_opt "schema" fields with
  | Some (Str "adhoc-lint/2") -> ()
  | Some (Str other) -> fail "unknown schema %S (expected \"adhoc-lint/2\")" other
  | _ -> fail "missing \"schema\" member");
  let num name =
    match number fields name with
    | Some f when Float.is_integer f && f >= 0. -> int_of_float f
    | _ -> fail "missing or malformed numeric %S" name
  in
  let files = num "files"
  and cmt_units = num "cmt_units"
  and errors = num "errors"
  and warnings = num "warnings" in
  if cmt_units = 0 then
    fail "cmt_units is 0: the Typedtree layer did not run (--no-cmt report?)";
  let arr name =
    match List.assoc_opt name fields with
    | Some (Arr vs) -> vs
    | _ -> fail "missing or malformed %S array" name
  in
  let severity_ok = function Str ("error" | "warning") -> true | _ -> false in
  let layer_ok = function Str ("parsetree" | "cmt" | "both" | "meta") -> true | _ -> false in
  let rule_ids =
    List.map
      (fun v ->
        match v with
        | Obj f -> (
            match
              ( List.assoc_opt "id" f,
                List.assoc_opt "severity" f,
                List.assoc_opt "layer" f,
                List.assoc_opt "count" f,
                List.assoc_opt "waived" f )
            with
            | Some (Str id), Some sev, Some layer, Some (Num _), Some (Num _)
              when severity_ok sev && layer_ok layer ->
                id
            | _ -> fail "malformed rule entry")
        | _ -> fail "rule entry is not an object")
      (arr "rules")
  in
  if rule_ids = [] then fail "empty \"rules\" array";
  let counted = (ref 0, ref 0) in
  List.iter
    (fun v ->
      match v with
      | Obj f -> (
          match
            ( List.assoc_opt "file" f,
              List.assoc_opt "line" f,
              List.assoc_opt "col" f,
              List.assoc_opt "rule" f,
              List.assoc_opt "layer" f,
              List.assoc_opt "severity" f,
              List.assoc_opt "message" f )
          with
          | ( Some (Str _),
              Some (Num _),
              Some (Num _),
              Some (Str rule),
              Some (Str ("parsetree" | "cmt")),
              Some sev,
              Some (Str _) )
            when severity_ok sev ->
              if not (List.mem rule rule_ids) then
                fail "diagnostic references undeclared rule %S" rule;
              let e, w = counted in
              if sev = Str "error" then incr e else incr w
          | _ -> fail "malformed diagnostic entry")
      | _ -> fail "diagnostic entry is not an object")
    (arr "diagnostics");
  let e, w = counted in
  if !e <> errors || !w <> warnings then
    fail "totals disagree with diagnostics: %d/%d declared, %d/%d listed" errors warnings !e !w;
  let waivers = arr "waivers" in
  List.iter
    (fun v ->
      match v with
      | Obj f -> (
          match
            ( List.assoc_opt "file" f,
              List.assoc_opt "line" f,
              List.assoc_opt "rule" f,
              List.assoc_opt "reason" f )
          with
          | Some (Str _), Some (Num _), Some (Str rule), Some (Str reason) ->
              if not (List.mem rule rule_ids) then
                fail "waiver references undeclared rule %S" rule;
              if reason = "" then fail "waiver carries an empty reason"
          | _ -> fail "malformed waiver entry")
      | _ -> fail "waiver entry is not an object")
    waivers;
  Printf.printf "%s: ok (%d files, %d cmt units, %d errors, %d warnings, %d waivers)\n" file files
    cmt_units errors warnings (List.length waivers)

(* --------------------------------------------------------------------- *)
(* Chrome trace-event exports (catapult format, see lib/obs/chrome_trace):
   a top-level object with a non-empty "traceEvents" array of objects,
   every event "M" (metadata: needs a name) or "X" (complete: needs name,
   numeric pid/tid and non-negative ts/dur). *)

let check_chrome_trace file =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1)
      fmt
  in
  let fields =
    match of_string (read_file file) with
    | Error msg -> fail "invalid JSON: %s" msg
    | Ok (Obj fields) -> fields
    | Ok _ -> fail "top-level value is not an object"
  in
  let events =
    match List.assoc_opt "traceEvents" fields with
    | Some (Arr (_ :: _ as es)) -> es
    | Some (Arr []) -> fail "empty \"traceEvents\" array"
    | _ -> fail "missing or malformed \"traceEvents\" array"
  in
  let complete = ref 0 in
  List.iteri
    (fun i v ->
      let f = match v with Obj f -> f | _ -> fail "event %d is not an object" i in
      let name_ok = match List.assoc_opt "name" f with Some (Str _) -> true | _ -> false in
      match List.assoc_opt "ph" f with
      | Some (Str "M") -> if not name_ok then fail "metadata event %d lacks a \"name\"" i
      | Some (Str "X") ->
          incr complete;
          if not name_ok then fail "complete event %d lacks a \"name\"" i;
          let num field =
            match number f field with
            | Some x -> x
            | None -> fail "complete event %d lacks a numeric %S" i field
          in
          ignore (num "pid");
          ignore (num "tid");
          if num "ts" < 0. then fail "complete event %d has a negative \"ts\"" i;
          if num "dur" < 0. then fail "complete event %d has a negative \"dur\"" i
      | Some (Str other) -> fail "event %d has unsupported phase %S" i other
      | _ -> fail "event %d lacks a \"ph\" member" i)
    events;
  if !complete = 0 then fail "no \"X\" (complete) events — nothing was profiled";
  Printf.printf "%s: ok (%d events, %d complete)\n" file (List.length events) !complete

(* --------------------------------------------------------------------- *)
(* adhoc-live/1: the streaming-telemetry snapshot stream written by
   `adhoc_sim route --live` and `analyze --replay-live` (lib/obs/live.ml).
   Shape: a header line {schema, window, top_k}, one object per closed
   tumbling window — consecutive "w" indices, each covering exactly
   "window" simulation steps — and exactly one final cumulative object as
   the last line.  The stream is a fold of the event log, so each
   per-window counter must sum to the final cumulative counter; any
   mismatch means a truncated or corrupt file. *)

let check_live file =
  let fail line fmt =
    Printf.ksprintf
      (fun msg ->
        (match line with
        | Some l -> Printf.eprintf "%s:%d: %s\n" file l msg
        | None -> Printf.eprintf "%s: %s\n" file msg);
        exit 1)
      fmt
  in
  let lines =
    String.split_on_char '\n' (read_file file) |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> fail None "empty live stream"
  | header :: records ->
      let hf =
        match of_string header with
        | Error msg -> fail (Some 1) "invalid JSON: %s" msg
        | Ok (Obj f) -> f
        | Ok _ -> fail (Some 1) "header line is not a JSON object"
      in
      (match List.assoc_opt "schema" hf with
      | Some (Str "adhoc-live/1") -> ()
      | Some (Str other) -> fail (Some 1) "unknown schema %S (expected \"adhoc-live/1\")" other
      | _ -> fail (Some 1) "missing \"schema\" member");
      let window =
        match number hf "window" with
        | Some w when Float.is_integer w && w >= 1. -> int_of_float w
        | _ -> fail (Some 1) "header lacks a positive integer \"window\""
      in
      (match number hf "top_k" with
      | Some k when Float.is_integer k && k >= 1. -> ()
      | _ -> fail (Some 1) "header lacks a positive integer \"top_k\"");
      if records = [] then fail None "no records after the header";
      let nrec = List.length records in
      let counter_names =
        [ "injected"; "dropped"; "delivered"; "self"; "sends"; "collisions"; "control" ]
      in
      (* Window-counter sums, accumulated in [counter_names] order and
         looked up by key only (never iterated). *)
      let sums = Hashtbl.create 8 in
      List.iter (fun n -> Hashtbl.replace sums n 0) counter_names;
      let nwindows = ref 0 in
      let expect_w = ref None in
      let int_member lineno f name =
        match number f name with
        | Some v when Float.is_integer v && v >= 0. -> int_of_float v
        | _ -> fail (Some lineno) "missing or malformed non-negative integer %S" name
      in
      let quantile_member lineno f name =
        match List.assoc_opt name f with
        | Some (Num _ | Null) -> ()
        | _ -> fail (Some lineno) "missing or malformed %S (number or null)" name
      in
      List.iteri
        (fun i line ->
          let lineno = i + 2 in
          let f =
            match of_string line with
            | Error msg -> fail (Some lineno) "invalid JSON: %s" msg
            | Ok (Obj f) -> f
            | Ok _ -> fail (Some lineno) "record is not a JSON object"
          in
          match List.assoc_opt "final" f with
          | Some (Bool true) ->
              if i <> nrec - 1 then
                fail (Some lineno) "\"final\" record is not the last line";
              let windows = int_member lineno f "windows" in
              if windows <> !nwindows then
                fail (Some lineno) "final says %d windows, the stream has %d" windows
                  !nwindows;
              ignore (int_member lineno f "steps");
              ignore (int_member lineno f "events");
              ignore (int_member lineno f "buffered");
              ignore (int_member lineno f "violations");
              ignore (int_member lineno f "anomalies");
              (match List.assoc_opt "healthy" f with
              | Some (Bool _) -> ()
              | _ -> fail (Some lineno) "final record lacks a boolean \"healthy\"");
              List.iter
                (fun name ->
                  let v = int_member lineno f name in
                  let s = Hashtbl.find sums name in
                  if v <> s then
                    fail (Some lineno)
                      "final %s = %d but the windows sum to %d (truncated or corrupt \
                       stream)"
                      name v s)
                counter_names;
              List.iter (quantile_member lineno f)
                [
                  "energy"; "latency_mean"; "latency_p50"; "latency_p90"; "latency_p95";
                  "latency_p99"; "hops_mean"; "hops_p50"; "hops_p95"; "occupancy_mean";
                  "occupancy_p50"; "occupancy_p95"; "occupancy_max";
                ];
              (match (List.assoc_opt "top_edges" f, List.assoc_opt "top_nodes" f) with
              | Some (Arr _), Some (Arr _) -> ()
              | _ ->
                  fail (Some lineno) "final record lacks \"top_edges\" / \"top_nodes\" arrays")
          | Some _ -> fail (Some lineno) "\"final\" must be true"
          | None ->
              if i = nrec - 1 then fail (Some lineno) "last line is not the \"final\" record";
              incr nwindows;
              let w = int_member lineno f "w" in
              (match !expect_w with
              | Some e when w <> e ->
                  fail (Some lineno)
                    "window index %d, expected %d (tumbling windows are consecutive)" w e
              | _ -> ());
              expect_w := Some (w + 1);
              (match List.assoc_opt "steps" f with
              | Some (Arr [ lo; hi ])
                when is_num (float_of_int (w * window)) lo
                     && is_num (float_of_int ((w * window) + window - 1)) hi ->
                  ()
              | _ ->
                  fail (Some lineno) "window %d must cover steps [%d,%d]" w (w * window)
                    ((w * window) + window - 1));
              ignore (int_member lineno f "buffered");
              ignore (int_member lineno f "violations");
              List.iter
                (fun name ->
                  let v = int_member lineno f name in
                  Hashtbl.replace sums name (Hashtbl.find sums name + v))
                counter_names;
              List.iter (quantile_member lineno f)
                [
                  "latency_p50"; "latency_p95"; "hops_p50"; "hops_p95"; "occupancy_p50";
                  "occupancy_p95";
                ];
              (match List.assoc_opt "top_edges" f with
              | Some (Arr _) -> ()
              | _ -> fail (Some lineno) "window record lacks a \"top_edges\" array"))
        records;
      Printf.printf "%s: ok (%d windows + final, window = %d steps)\n" file !nwindows window

let () =
  match Sys.argv with
  | [| _; f |] -> check_document f
  | [| _; "--live"; f |] -> check_live f
  | [| _; "--lint"; f |] -> check_lint_report f
  | [| _; "--chrome-trace"; f |] -> check_chrome_trace f
  | [| _; "--compare"; base; cur |] -> compare_docs base cur
  | _ ->
      prerr_endline
        "usage: json_check FILE\n\
        \       json_check --live FILE\n\
        \       json_check --lint FILE\n\
        \       json_check --chrome-trace FILE\n\
        \       json_check --compare BASELINE CURRENT";
      exit 2
