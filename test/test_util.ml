module Pqueue = Adhoc_util.Pqueue
module Union_find = Adhoc_util.Union_find
module Counting_sort = Adhoc_util.Counting_sort
module Stats = Adhoc_util.Stats
module Table = Adhoc_util.Table
module Json = Adhoc_util.Json
open Helpers

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of range: %d" x
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_uniform_range () =
  let rng = Prng.create 6 in
  for _ = 1 to 10_000 do
    let x = Prng.uniform rng in
    if x < 0. || x >= 1. then Alcotest.failf "uniform out of range: %f" x
  done

let test_prng_uniform_mean () =
  let rng = Prng.create 7 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "uniform mean off: %f" mean

let test_prng_gaussian_moments () =
  let rng = Prng.create 8 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian rng ~mean:3. ~stddev:2.) in
  let mean = Stats.mean xs and sd = Stats.stddev xs in
  if Float.abs (mean -. 3.) > 0.05 then Alcotest.failf "gaussian mean off: %f" mean;
  if Float.abs (sd -. 2.) > 0.05 then Alcotest.failf "gaussian stddev off: %f" sd

let test_prng_exponential_mean () =
  let rng = Prng.create 9 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.exponential rng ~rate:4.) in
  let mean = Stats.mean xs in
  if Float.abs (mean -. 0.25) > 0.01 then Alcotest.failf "exponential mean off: %f" mean

let test_prng_shuffle_permutation () =
  let rng = Prng.create 10 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let rng = Prng.create 11 in
  for _ = 1 to 100 do
    let s = Prng.sample_without_replacement rng 10 30 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let sorted = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" 10 (List.length sorted);
    List.iter (fun x -> if x < 0 || x >= 30 then Alcotest.fail "element out of range") sorted
  done

let test_prng_split_independent () =
  let rng = Prng.create 12 in
  let child = Prng.split rng in
  (* Consuming the child must not change the parent's future stream relative
     to a replayed parent. *)
  let replay = Prng.create 12 in
  let _ = Prng.split replay in
  ignore (Prng.bits64 child);
  ignore (Prng.bits64 child);
  Alcotest.(check int64) "parent unaffected" (Prng.bits64 replay) (Prng.bits64 rng)

let test_prng_copy () =
  let rng = Prng.create 13 in
  ignore (Prng.bits64 rng);
  let dup = Prng.copy rng in
  Alcotest.(check int64) "copy same next" (Prng.bits64 (Prng.copy rng)) (Prng.bits64 dup)

(* The stream itself, pinned: the first three outputs of seeds 0, 1 and
   42, of the child split off seed 7, and of a copy taken after one draw
   from seed 9.  Any change to the state layout must reproduce these. *)
let test_prng_stream_pinned () =
  let check name g expected =
    Alcotest.(check (list int64)) name expected (List.init 3 (fun _ -> Prng.bits64 g))
  in
  check "seed 0" (Prng.create 0)
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  check "seed 1" (Prng.create 1)
    [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L ];
  check "seed 42" (Prng.create 42)
    [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L ];
  let g = Prng.create 7 in
  check "split of seed 7" (Prng.split g)
    [ 0xBC5C680BC83C6952L; 0xEDBFFBD62E8FA50EL; 0x8C58A9E76AB70DFBL ];
  check "seed 7 after the split" g
    [ 0x4D58FBD282EAF415L; 0xF0E521070CC03750L; 0xE21B503436E97F5BL ];
  let g = Prng.create 9 in
  ignore (Prng.bits64 g);
  check "copy of seed 9 after one draw" (Prng.copy g)
    [ 0x7E449796D8A5423EL; 0xF2D0FC3F88B20D54L; 0x923347C1490BC641L ]

(* Draws keep the state unboxed, so [int] and [bool] allocate nothing:
   10^5 calls stay under 64 minor words, which is what the two Gcstat
   reads around the loop cost themselves.  [bits64] and [uniform] return
   an [int64] and a [float], which are boxed (3 and 2 words) wherever
   the compiler does not inline the call; they may allocate that box
   and nothing more. *)
let test_prng_draws_allocation_free () =
  let calls = 100_000 in
  let words draw =
    let g = Prng.create 21 in
    let before = Adhoc_obs.Gcstat.read () in
    for _ = 1 to calls do
      draw g
    done;
    let after = Adhoc_obs.Gcstat.read () in
    (Adhoc_obs.Gcstat.delta ~before ~after).Adhoc_obs.Gcstat.minor_words
  in
  let check name ~result_words draw =
    let w = words draw in
    let bound = float_of_int ((result_words * calls) + 64) in
    if w >= bound then Alcotest.failf "%d Prng.%s calls allocated %.0f minor words" calls name w
  in
  check "int" ~result_words:0 (fun g -> ignore (Prng.int g 7));
  check "bool" ~result_words:0 (fun g -> ignore (Prng.bool g));
  check "bits64" ~result_words:3 (fun g -> ignore (Prng.bits64 g));
  check "uniform" ~result_words:2 (fun g -> ignore (Prng.uniform g));
  let threshold = Prng.bernoulli_threshold (1. /. 6.) in
  check "bernoulli" ~result_words:0 (fun g -> ignore (Prng.bernoulli g threshold))

(* [bernoulli g (bernoulli_threshold p)] is [uniform g < p]: the same
   answer, and the generator in the same state afterwards.  The
   probabilities are the random MAC's 1/(2I) for I = 1 … 2000, the edge
   values 0, 2⁻⁶⁰, 0.5, 1 − 2⁻⁵³ and 1, and random doubles: multiples of
   2⁻⁵³ as [uniform] draws them, and doubles from random bit patterns,
   whose exponents spread down to the subnormals.  Random draws rarely
   land next to the threshold, so each [p] is also checked on the 53-bit
   values [r] around it ([uniform] returns r·2⁻⁵³ for the [r] it draws),
   and the draws themselves are checked against a [p] equal to the next
   draw's value and one step of 2⁻⁵³ either side. *)
let test_prng_bernoulli_matches_uniform =
  qtest "bernoulli = uniform < p (answer and state)" ~count:20 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let fixed =
        [ 0.; 0x1p-60; 0.5; 1. -. 0x1p-53; 1. ]
        @ List.init 2000 (fun i -> 1. /. (2. *. float_of_int (i + 1)))
      in
      let rec bit_pattern () =
        let x = Int64.float_of_bits (Int64.shift_right_logical (Prng.bits64 rng) 2) in
        if x <= 1. then x else bit_pattern ()
      in
      let random = List.init 100 (fun i -> if i mod 2 = 0 then Prng.uniform rng else bit_pattern ()) in
      let check p =
        let th = Prng.bernoulli_threshold p in
        let around =
          List.for_all
            (fun r -> r < 0 || r >= 1 lsl 53 || (float_of_int r *. 0x1p-53 < p) = (r < th))
            [ th - 2; th - 1; th; th + 1 ]
        in
        let draws =
          List.for_all
            (fun _ ->
              let a = Prng.copy rng and b = Prng.copy rng in
              ignore (Prng.bits64 rng);
              Prng.bernoulli a th = (Prng.uniform b < p) && Prng.bits64 a = Prng.bits64 b)
            [ 1; 2; 3; 4 ]
        in
        around && draws
      in
      let at_next_draw steps =
        Float.min 1. (Float.max 0. (Prng.uniform (Prng.copy rng) +. (steps *. 0x1p-53)))
      in
      List.for_all check (fixed @ random)
      && List.for_all (fun steps -> check (at_next_draw steps)) [ -1.; 0.; 1. ])

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_sorted_drain =
  qtest "pqueue drains in key order" QCheck2.Gen.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.push q k v) entries;
      let rec drain last acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (k, _) ->
            if k < last then failwith "out of order";
            drain k (k :: acc)
      in
      let drained = drain neg_infinity [] in
      List.length drained = List.length entries)

let test_pqueue_basic () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q 3. "c";
  Pqueue.push q 1. "a";
  Pqueue.push q 2. "b";
  Alcotest.(check int) "length" 3 (Pqueue.length q);
  (match Pqueue.peek q with
  | Some (k, v) ->
      Alcotest.(check (float 0.)) "peek key" 1. k;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected peek");
  let _, a = Pqueue.pop_exn q in
  let _, b = Pqueue.pop_exn q in
  let _, c = Pqueue.pop_exn q in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] [ a; b; c ];
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_pop_exn_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q))

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 1. 1;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Union_find                                                          *)

let test_union_find_basic () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial count" 5 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union repeat" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check int) "count after unions" 2 (Union_find.count uf);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 1 2)

let test_union_find_all_merged =
  qtest "chain union connects everything" QCheck2.Gen.(int_range 2 100) (fun n ->
      let uf = Union_find.create n in
      for i = 0 to n - 2 do
        ignore (Union_find.union uf i (i + 1))
      done;
      Union_find.count uf = 1 && Union_find.same uf 0 (n - 1))

(* ------------------------------------------------------------------ *)
(* Counting_sort                                                       *)

let test_counting_pass_stable =
  qtest "pass = List.stable_sort by key" ~count:200 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let buckets = 1 + Prng.int rng 20 and k = Prng.int rng 60 in
      let key = Array.init (k + Prng.int rng 5) (fun _ -> Prng.int rng buckets) in
      let src = Array.init k (fun _ -> Prng.int rng (Array.length key)) in
      let dst = Array.make k (-1) in
      Counting_sort.pass ~count:(Array.make (buckets + 1) 7) ~key src dst k;
      Array.to_list dst
      = List.stable_sort (fun x y -> Int.compare key.(x) key.(y)) (Array.to_list src))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_mean_stddev () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. (Stats.mean xs);
  check_close ~eps:1e-6 "stddev" 2.13808993529939 (Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close "p0" 1. (Stats.percentile xs 0.);
  check_close "p100" 4. (Stats.percentile xs 100.);
  check_close "p50" 2.5 (Stats.percentile xs 50.);
  check_close "p25" 1.75 (Stats.percentile xs 25.)

let test_stats_summarize () =
  let s = Stats.summarize [| 5.; 1.; 3. |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_close "min" 1. s.Stats.min;
  check_close "max" 5. s.Stats.max;
  check_close "median" 3. s.Stats.median;
  check_close "mean" 3. s.Stats.mean

let test_stats_linear_fit () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> 2. +. (3. *. x)) xs in
  let a, b = Stats.linear_fit xs ys in
  check_close "intercept" 2. a;
  check_close "slope" 3. b

let test_stats_loglog_slope () =
  let xs = [| 1.; 2.; 4.; 8.; 16. |] in
  let ys = Array.map (fun x -> 5. *. (x ** 3.)) xs in
  check_close ~eps:1e-6 "cubic exponent" 3. (Stats.loglog_slope xs ys)

let test_stats_log_fit () =
  let xs = [| 1.; Float.exp 1.; Float.exp 2. |] in
  let ys = [| 1.; 3.; 5. |] in
  let a, b = Stats.log_fit xs ys in
  check_close ~eps:1e-6 "intercept" 1. a;
  check_close ~eps:1e-6 "log slope" 2. b

let test_stats_correlation () =
  let xs = [| 1.; 2.; 3. |] in
  check_close "perfect" 1. (Stats.correlation xs (Array.map (fun x -> (2. *. x) +. 1.) xs));
  check_close "anti" (-1.) (Stats.correlation xs (Array.map (fun x -> -.x) xs))

let test_stats_empty_errors () =
  Alcotest.check_raises "summarize empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]));
  Alcotest.check_raises "percentile empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_stats_single_element () =
  check_close "p0" 7. (Stats.percentile [| 7. |] 0.);
  check_close "p50" 7. (Stats.percentile [| 7. |] 50.);
  check_close "p100" 7. (Stats.percentile [| 7. |] 100.);
  let s = Stats.summarize [| 7. |] in
  Alcotest.(check int) "n" 1 s.Stats.n;
  check_close "mean" 7. s.Stats.mean;
  check_close "stddev" 0. s.Stats.stddev;
  check_close "min" 7. s.Stats.min;
  check_close "max" 7. s.Stats.max;
  check_close "median" 7. s.Stats.median;
  check_close "p95" 7. s.Stats.p95

let test_stats_nan_handling () =
  (* nans are dropped; the order statistics come from the clean subsample. *)
  let xs = [| Float.nan; 3.; Float.nan; 1.; 2.; 4.; Float.nan |] in
  check_close "p0 skips nan" 1. (Stats.percentile xs 0.);
  check_close "p100 skips nan" 4. (Stats.percentile xs 100.);
  check_close "p50 skips nan" 2.5 (Stats.percentile xs 50.);
  let s = Stats.summarize xs in
  Alcotest.(check int) "n counts non-nan" 4 s.Stats.n;
  check_close "mean over non-nan" 2.5 s.Stats.mean;
  check_close "min over non-nan" 1. s.Stats.min;
  check_close "max over non-nan" 4. s.Stats.max;
  check_close "median over non-nan" 2.5 s.Stats.median

let test_stats_all_nan () =
  let xs = [| Float.nan; Float.nan |] in
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.percentile xs 50.));
  let s = Stats.summarize xs in
  Alcotest.(check int) "n zero" 0 s.Stats.n;
  Alcotest.(check bool) "mean nan" true (Float.is_nan s.Stats.mean);
  Alcotest.(check bool) "min nan" true (Float.is_nan s.Stats.min);
  Alcotest.(check bool) "max nan" true (Float.is_nan s.Stats.max);
  Alcotest.(check bool) "median nan" true (Float.is_nan s.Stats.median);
  Alcotest.(check bool) "p95 nan" true (Float.is_nan s.Stats.p95)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_rendering () =
  let t = Table.create ~title:"demo" [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  (* Right-aligned numbers line up on their last character. *)
  let lines = String.split_on_char '\n' s in
  let data = List.filteri (fun i _ -> i >= 3) lines in
  (match data with
  | a :: b :: _ ->
      Alcotest.(check int) "equal widths" (String.length a) (String.length b)
  | _ -> Alcotest.fail "missing rows")

let test_table_mismatch () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_float_row () =
  let t = Table.create [ ("l", Table.Left); ("x", Table.Right) ] in
  Table.add_float_row t "row" [ 1.23456 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "formats floats" true (Helpers.contains s "1.235")


let test_stats_percentile_monotone =
  qtest "percentile is monotone in p" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let xs = Array.init (1 + Prng.int rng 50) (fun _ -> Prng.uniform rng) in
      let p1 = Prng.range rng 0. 100. and p2 = Prng.range rng 0. 100. in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-12)

let test_pqueue_duplicate_keys () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1. v) [ "a"; "b"; "c" ];
  Pqueue.push q 0. "first";
  let _, v = Pqueue.pop_exn q in
  Alcotest.(check string) "min first" "first" v;
  Alcotest.(check int) "rest remain" 3 (Pqueue.length q)

let test_prng_bool_balance () =
  let rng = Prng.create 14 in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.bool rng then incr trues
  done;
  let p = float_of_int !trues /. float_of_int n in
  if Float.abs (p -. 0.5) > 0.01 then Alcotest.failf "bool biased: %f" p

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

(* A random value whose strings need no escaping.  Numbers take every
   literal form: sign, zero or a leading nonzero digit, fraction,
   exponent with either letter and any sign. *)
let json_value rng =
  let pick xs = List.nth xs (Prng.int rng (List.length xs)) in
  let digits k = String.init k (fun _ -> Char.chr (48 + Prng.int rng 10)) in
  let number () =
    let int_part =
      if Prng.int rng 4 = 0 then "0"
      else String.make 1 (Char.chr (49 + Prng.int rng 9)) ^ digits (Prng.int rng 4)
    in
    Json.Num
      (pick [ ""; "-" ] ^ int_part
      ^ (if Prng.bool rng then "." ^ digits (1 + Prng.int rng 4) else "")
      ^
      if Prng.bool rng then pick [ "e"; "E" ] ^ pick [ ""; "+"; "-" ] ^ digits (1 + Prng.int rng 3)
      else "")
  in
  let word () = String.concat "" (List.init (Prng.int rng 5) (fun _ -> pick [ "a"; "Z"; "7"; " "; "/"; "_"; "é" ])) in
  let rec value depth =
    match Prng.int rng (if depth = 0 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Prng.bool rng)
    | 2 | 3 -> number ()
    | 4 -> Json.Str (word ())
    | 5 -> Json.Arr (List.init (Prng.int rng 4) (fun _ -> value (depth - 1)))
    | _ ->
        (* The index suffix keeps member names distinct. *)
        Json.Obj (List.init (Prng.int rng 4) (fun i -> (word () ^ string_of_int i, value (depth - 1))))
  in
  value 3

let test_json_roundtrip =
  qtest "of_string (to_string v) = Ok v" ~count:500 seed_gen (fun seed ->
      let v = json_value (Prng.create seed) in
      Json.of_string (Json.to_string v) = Ok v)

(* Recorded outputs of every writer whose documents the tools read back. *)
let json_documents =
  lazy
    [
      In_channel.with_open_bin "../BENCH_BASELINE.json" In_channel.input_all;
      {|{"traceEvents": [
  {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "adhoc bench e11"}},
  {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "slot 1 (worker 0)"}},
  {"ph": "X", "pid": 1, "tid": 0, "name": "bench/seeds", "cat": "region", "ts": 4023447.990, "dur": 6928969.145, "args": {"lo": 0, "hi": 2, "items": 2}},
  {"ph": "X", "pid": 1, "tid": 0, "name": "pool/bench/seeds", "cat": "span", "ts": 4023442.984, "dur": 6928979.158}
], "displayTimeUnit": "ms"}
|};
      {|{"final":true,"steps":281,"events":55,"windows":6,"injected":41,"dropped":0,"delivered":0,"self":0,"sends":14,"collisions":0,"control":0,"buffered":41,"violations":0,"healthy":true,"anomalies":0,"energy":0.15794445144963348,"latency_mean":null,"latency_p50":null,"occupancy_mean":22.612244897959183,"occupancy_p50":32,"top_edges":[[125,7,0],[2,4,0],[142,3,0]],"top_nodes":[[31,7,0],[32,7,0]]}|};
      {|{"ev":"send","step":34,"edge":125,"src":32,"dst":31,"dest":0,"cost":0.00441853400190448,"outcome":"moved"}|};
    ]

let test_json_documents_read () =
  List.iteri
    (fun i doc ->
      match Json.of_string doc with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "document %d: %s" i msg)
    (Lazy.force json_documents)

(* Byte flips, digit swaps and truncations: the reader answers Ok or
   Error, and never raises. *)
let test_json_mutations =
  qtest "mutated documents read as Ok or Error" ~count:400 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let docs = Lazy.force json_documents in
      let doc = List.nth docs (Prng.int rng (List.length docs)) in
      let b = Bytes.of_string doc in
      let mutated =
        match Prng.int rng 3 with
        | 0 -> String.sub doc 0 (Prng.int rng (String.length doc))
        | 1 ->
            Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (Prng.int rng 256));
            Bytes.to_string b
        | _ ->
            let rec pick () =
              let i = Prng.int rng (Bytes.length b) in
              match Bytes.get b i with '0' .. '9' -> i | _ -> pick ()
            in
            Bytes.set b (pick ()) (Char.chr (48 + Prng.int rng 10));
            Bytes.to_string b
      in
      match Json.of_string mutated with Ok _ | Error _ -> true)

let test_json_grammar () =
  let rejects what text expected =
    match Json.of_string text with
    | Error msg -> Alcotest.(check string) what expected msg
    | Ok _ -> Alcotest.failf "%s: %S accepted" what text
  in
  rejects "leading zero" "01" "leading zero at offset 1";
  rejects "leading zero after a minus" "[-01]" "leading zero at offset 3";
  rejects "no fraction digits" "1." "expected a digit at offset 2";
  rejects "no integer part" ".5" "expected a value at offset 0";
  rejects "lone minus" "-" "expected a digit at offset 1";
  rejects "no exponent digits" "1e+" "expected a digit at offset 3";
  rejects "non-hex \\u escape" {|"\u00_1"|} "bad \\u escape at offset 5";
  rejects "short \\u escape" {|"\u12"|} "bad \\u escape at offset 5";
  rejects "unknown escape" {|"\x"|} "bad escape at offset 2";
  rejects "raw control character" "\"a\tb\"" "control character in string at offset 2";
  rejects "trailing text" "{} x" "text after the value at offset 3";
  rejects "second value" "1 2" "text after the value at offset 2";
  rejects "repeated name" {|{"a":1,"a":2}|} "repeated member name \"a\" at offset 7";
  rejects "unterminated string" {|"ab|} "unterminated string at offset 3";
  rejects "empty input" " " "unexpected end of input at offset 1";
  let reads text v = Alcotest.(check bool) text true (Json.of_string text = Ok v) in
  reads " -0 " (Json.Num "-0");
  reads "1.5E+10" (Json.Num "1.5E+10");
  reads {|"a\"é\/"|} (Json.Str {|a\"é\/|});
  reads {|[{"a":1},{"a":2}]|}
    (Json.Arr [ Json.Obj [ ("a", Json.Num "1") ]; Json.Obj [ ("a", Json.Num "2") ] ]);
  reads "{ \"a\" : [ ] ,\r\n\"b\":{}}" (Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj []) ])

let test_json_writer () =
  Alcotest.(check string) "escapes" {|"q\"b\\n\nr\rt\tc\u0001"|}
    (Json.to_string (Json.Str "q\"b\\n\nr\rt\tc\001"));
  Alcotest.(check string) "compact"
    {|{"i":-3,"f":0.1,"big":1e+20,"nan":null,"inf":null,"l":[true,false,null]}|}
    (Json.to_string
       (Json.Obj
          [
            ("i", Json.int (-3));
            ("f", Json.float 0.1);
            ("big", Json.float 1e20);
            ("nan", Json.float Float.nan);
            ("inf", Json.float Float.infinity);
            ("l", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
          ]))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          case "determinism" test_prng_determinism;
          case "seed sensitivity" test_prng_seed_sensitivity;
          case "int bounds" test_prng_int_bounds;
          case "int rejects nonpositive" test_prng_int_rejects_nonpositive;
          case "uniform range" test_prng_uniform_range;
          case "uniform mean" test_prng_uniform_mean;
          case "gaussian moments" test_prng_gaussian_moments;
          case "exponential mean" test_prng_exponential_mean;
          case "shuffle permutation" test_prng_shuffle_permutation;
          case "sample without replacement" test_prng_sample_without_replacement;
          case "split independence" test_prng_split_independent;
          case "copy" test_prng_copy;
          case "stream pinned" test_prng_stream_pinned;
          case "draws allocate no state" test_prng_draws_allocation_free;
          test_prng_bernoulli_matches_uniform;
          case "bool balance" test_prng_bool_balance;
        ] );
      ( "pqueue",
        [
          test_pqueue_sorted_drain;
          case "basic order" test_pqueue_basic;
          case "pop_exn empty" test_pqueue_pop_exn_empty;
          case "clear" test_pqueue_clear;
          case "duplicate keys" test_pqueue_duplicate_keys;
        ] );
      ( "union_find",
        [ case "basic" test_union_find_basic; test_union_find_all_merged ] );
      ("counting", [ test_counting_pass_stable ]);
      ( "stats",
        [
          case "mean stddev" test_stats_mean_stddev;
          case "percentile" test_stats_percentile;
          case "summarize" test_stats_summarize;
          case "linear fit" test_stats_linear_fit;
          case "loglog slope" test_stats_loglog_slope;
          case "log fit" test_stats_log_fit;
          case "correlation" test_stats_correlation;
          case "empty errors" test_stats_empty_errors;
          case "single element" test_stats_single_element;
          case "nan handling" test_stats_nan_handling;
          case "all nan" test_stats_all_nan;
          test_stats_percentile_monotone;
        ] );
      ( "table",
        [
          case "rendering" test_table_rendering;
          case "cell mismatch" test_table_mismatch;
          case "float row" test_table_float_row;
        ] );
      ( "json",
        [
          test_json_roundtrip;
          case "recorded documents read" test_json_documents_read;
          test_json_mutations;
          case "grammar" test_json_grammar;
          case "writer" test_json_writer;
        ] );
    ]
