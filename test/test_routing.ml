open Adhoc_routing
module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Conflict = Adhoc_interference.Conflict
module Model = Adhoc_interference.Model
module Mac = Adhoc_mac.Mac
module Array_mac = Reference_mac.Array_mac
module Event = Adhoc_obs.Event
module Honeycomb = Adhoc_mac.Honeycomb
module Udg = Adhoc_topo.Udg
module Theta_alg = Adhoc_topo.Theta_alg
open Helpers

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)

let test_buffers_inject_cap () =
  let b = Buffers.create 3 in
  Alcotest.(check bool) "inject" true (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check bool) "inject" true (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check bool) "full" false (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check int) "height" 2 (Buffers.height b 0 1);
  Alcotest.(check int) "total" 2 (Buffers.total b);
  Alcotest.(check bool) "self absorbs" true (Buffers.inject b ~cap:2 1 1);
  Alcotest.(check int) "self not stored" 0 (Buffers.height b 1 1)

let test_buffers_remove () =
  let b = Buffers.create 2 in
  ignore (Buffers.inject b ~cap:5 0 1);
  Buffers.remove b 0 1;
  Alcotest.(check int) "empty" 0 (Buffers.height b 0 1);
  Alcotest.check_raises "remove empty" (Invalid_argument "Buffers.remove: empty buffer")
    (fun () -> Buffers.remove b 0 1)

let test_buffers_force_add () =
  let b = Buffers.create 2 in
  for _ = 1 to 10 do
    Buffers.force_add b 0 1
  done;
  Alcotest.(check int) "uncapped" 10 (Buffers.height b 0 1);
  Buffers.force_add b 1 1;
  Alcotest.(check int) "destination absorbs" 0 (Buffers.height b 1 1)

(* Row [v] of [s] as (key, value) pairs, read through the fields the
   step kernel reads. *)
let sparse_row (s : Buffers.Sparse.t) v =
  let keys = s.key.(v) and values = s.value.(v) in
  List.init s.len.(v) (fun i -> (keys.(i), values.(i)))

let test_buffers_nonzero_iteration =
  qtest "height rows list exactly the non-empty buffers" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let b = Buffers.create n in
      let reference = Array.make_matrix n n 0 in
      for _ = 1 to 200 do
        let v = Prng.int rng n and d = Prng.int rng n in
        if Prng.bool rng then begin
          if Buffers.inject b ~cap:5 v d && v <> d then
            reference.(v).(d) <- reference.(v).(d) + 1
        end
        else if reference.(v).(d) > 0 then begin
          Buffers.remove b v d;
          reference.(v).(d) <- reference.(v).(d) - 1
        end
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (d, h) ->
            Hashtbl.replace seen d ();
            if reference.(v).(d) <> h || h = 0 then ok := false)
          (sparse_row (Buffers.heights b) v);
        for d = 0 to n - 1 do
          if reference.(v).(d) > 0 && not (Hashtbl.mem seen d) then ok := false
        done
      done;
      let expected_total =
        Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 reference
      in
      !ok && Buffers.total b = expected_total
      && Buffers.max_height b
         = Array.fold_left (fun a row -> Array.fold_left max a row) 0 reference)

let test_buffers_max_height_incremental () =
  let b = Buffers.create 3 in
  Alcotest.(check int) "empty" 0 (Buffers.max_height b);
  (* Push one pile well past the initial histogram capacity. *)
  for _ = 1 to 100 do
    Buffers.force_add b 0 1
  done;
  for _ = 1 to 40 do
    Buffers.force_add b 2 0
  done;
  Alcotest.(check int) "tall pile" 100 (Buffers.max_height b);
  (* Draining the tallest pile must walk the maximum down to the next. *)
  for _ = 1 to 100 do
    Buffers.remove b 0 1
  done;
  Alcotest.(check int) "next pile" 40 (Buffers.max_height b);
  for _ = 1 to 40 do
    Buffers.remove b 2 0
  done;
  Alcotest.(check int) "empty again" 0 (Buffers.max_height b)

let test_buffers_watcher () =
  let b = Buffers.create 3 in
  let events = ref [] in
  Buffers.set_watcher b (fun v d -> events := (v, d) :: !events);
  ignore (Buffers.inject b ~cap:5 0 1);
  Buffers.force_add b 2 1;
  Buffers.remove b 0 1;
  (* Self-addressed injections are absorbed without touching a buffer. *)
  ignore (Buffers.inject b ~cap:5 1 1);
  Alcotest.(check (list (pair int int)))
    "every height change reported" [ (0, 1); (2, 1); (0, 1) ] (List.rev !events);
  Buffers.clear_watcher b;
  Buffers.force_add b 0 2;
  Alcotest.(check int) "cleared watcher is silent" 3 (List.length !events)

let test_buffers_matrix_oracle =
  qtest "flat buffers = dense matrix oracle under random traffic" ~count:100 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let b = Buffers.create n in
      let reference = Array.make_matrix n n 0 in
      let ok = ref true in
      for _ = 1 to 300 do
        let v = Prng.int rng n and d = Prng.int rng n in
        match Prng.int rng 3 with
        | 0 ->
            if Buffers.inject b ~cap:4 v d then begin
              if v <> d then reference.(v).(d) <- reference.(v).(d) + 1
            end
            else if reference.(v).(d) < 4 then ok := false
        | 1 ->
            Buffers.force_add b v d;
            if v <> d then reference.(v).(d) <- reference.(v).(d) + 1
        | _ ->
            if reference.(v).(d) > 0 then begin
              Buffers.remove b v d;
              reference.(v).(d) <- reference.(v).(d) - 1
            end
      done;
      (* Every height agrees, and each height row lists exactly the
         nonzero destinations in ascending order. *)
      for v = 0 to n - 1 do
        for d = 0 to n - 1 do
          if Buffers.height b v d <> reference.(v).(d) then ok := false
        done;
        let expected =
          List.filter
            (fun d -> reference.(v).(d) > 0)
            (List.init n Fun.id)
          |> List.map (fun d -> (d, reference.(v).(d)))
        in
        if sparse_row (Buffers.heights b) v <> expected then ok := false
      done;
      !ok)

let test_sparse_matrix_oracle =
  qtest "Buffers.Sparse = dense matrix oracle" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let s = Buffers.Sparse.create n in
      let reference = Array.make_matrix n n 0 in
      let ok = ref true in
      for _ = 1 to 300 do
        let v = Prng.int rng n and k = Prng.int rng n in
        match Prng.int rng 3 with
        | 0 ->
            let delta = 1 + Prng.int rng 3 in
            reference.(v).(k) <- reference.(v).(k) + delta;
            if Buffers.Sparse.update s v k delta <> reference.(v).(k) then ok := false
        | 1 ->
            if reference.(v).(k) > 0 then begin
              reference.(v).(k) <- reference.(v).(k) - 1;
              if Buffers.Sparse.update s v k (-1) <> reference.(v).(k) then ok := false
            end
        | _ ->
            let x = Prng.int rng 4 in
            Buffers.Sparse.set s v k x;
            reference.(v).(k) <- x
      done;
      if Buffers.Sparse.size s <> n then ok := false;
      for v = 0 to n - 1 do
        for k = 0 to n - 1 do
          if Buffers.Sparse.get s v k <> reference.(v).(k) then ok := false;
          (* find agrees with membership: live keys resolve to their slot,
             absent keys to a complemented insertion point. *)
          let idx = Buffers.Sparse.find s v k in
          if reference.(v).(k) <> 0 then begin
            if idx < 0 then ok := false
          end
          else if idx >= 0 then ok := false
        done;
        let nonzero =
          Array.fold_left (fun a x -> if x <> 0 then a + 1 else a) 0 reference.(v)
        in
        if s.Buffers.Sparse.len.(v) <> nonzero then ok := false;
        let row = sparse_row s v in
        let last = ref (-1) in
        List.iter
          (fun (k, x) ->
            if k <= !last || x = 0 || x <> reference.(v).(k) then ok := false;
            last := k)
          row;
        if List.length row <> nonzero then ok := false;
        if
          List.fold_left (fun a (_, x) -> a + x) 0 row
          <> Array.fold_left ( + ) 0 reference.(v)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Balancing                                                           *)

let test_balancing_picks_argmax () =
  let b = Buffers.create 4 in
  let p = Balancing.params ~threshold:1. ~gamma:1. ~capacity:100 in
  (* Node 0 has 5 packets for dest 2 and 3 packets for dest 3. *)
  for _ = 1 to 5 do
    ignore (Buffers.inject b ~cap:100 0 2)
  done;
  for _ = 1 to 3 do
    ignore (Buffers.inject b ~cap:100 0 3)
  done;
  (match Reference_balancing.best_toward b p ~cost:0.5 ~src:0 ~dst:1 with
  | Some d ->
      Alcotest.(check int) "dest" 2 d.Reference_balancing.dest;
      check_close "gain" (5. -. 0. -. 0.5) d.Reference_balancing.gain
  | None -> Alcotest.fail "expected a decision");
  (* Raise destination-side height: gain drops below threshold. *)
  for _ = 1 to 5 do
    Buffers.force_add b 1 2
  done;
  for _ = 1 to 3 do
    Buffers.force_add b 1 3
  done;
  Alcotest.(check bool) "no decision" true
    (Reference_balancing.best_toward b p ~cost:0.5 ~src:0 ~dst:1 = None)

let test_balancing_threshold_strict () =
  let b = Buffers.create 2 in
  let p = Balancing.params ~threshold:3. ~gamma:0. ~capacity:10 in
  for _ = 1 to 3 do
    ignore (Buffers.inject b ~cap:10 0 1)
  done;
  (* Gain = 3 which is not > 3. *)
  Alcotest.(check bool) "not above threshold" true
    (Reference_balancing.best_toward b p ~cost:1. ~src:0 ~dst:1 = None);
  ignore (Buffers.inject b ~cap:10 0 1);
  Alcotest.(check bool) "above threshold" true
    (Reference_balancing.best_toward b p ~cost:1. ~src:0 ~dst:1 <> None)

let test_balancing_best_either () =
  let b = Buffers.create 2 in
  let p = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  for _ = 1 to 3 do
    Buffers.force_add b 1 0
  done;
  match Reference_balancing.best_either b p ~cost:0. ~u:0 ~v:1 with
  | Some d ->
      Alcotest.(check int) "sends from higher side" 1 d.Reference_balancing.src;
      Alcotest.(check int) "toward lower" 0 d.Reference_balancing.dst
  | None -> Alcotest.fail "expected decision"

let test_derive_3_1 () =
  let p =
    Balancing.Derive.theorem_3_1 ~opt_buffer:2 ~opt_avg_hops:5. ~opt_avg_cost:1. ~delta:2
      ~epsilon:0.5
  in
  check_close "T = B + 2(delta-1)" 4. p.Balancing.threshold;
  check_close "gamma = (T+B+delta)L/C" 40. p.Balancing.gamma;
  (* H = ceil(B * (1 + 2(1+(T+delta)/B) L / eps)) = ceil(2*(1+2*4*5/0.5)) *)
  Alcotest.(check int) "capacity" 162 p.Balancing.capacity

let test_derive_3_3 () =
  let p =
    Balancing.Derive.theorem_3_3 ~opt_buffer:1 ~opt_avg_hops:4. ~opt_avg_cost:2. ~epsilon:0.5
  in
  check_close "T = 2B+1" 3. p.Balancing.threshold;
  check_close "gamma = (T+B)L/C" 8. p.Balancing.gamma;
  Alcotest.(check int) "capacity" 65 p.Balancing.capacity

let test_derive_epsilon_monotone () =
  let cap eps =
    (Balancing.Derive.theorem_3_1 ~opt_buffer:2 ~opt_avg_hops:5. ~opt_avg_cost:1. ~delta:1
       ~epsilon:eps)
      .Balancing.capacity
  in
  Alcotest.(check bool) "smaller eps needs bigger buffers" true (cap 0.1 > cap 0.5);
  Alcotest.(check bool) "and bigger than 0.9" true (cap 0.5 > cap 0.9)

let test_params_validation () =
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Balancing.params: negative threshold") (fun () ->
      ignore (Balancing.params ~threshold:(-1.) ~gamma:0. ~capacity:1));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Derive.theorem_3_1: epsilon in (0,1)") (fun () ->
      ignore
        (Balancing.Derive.theorem_3_1 ~opt_buffer:1 ~opt_avg_hops:1. ~opt_avg_cost:1. ~delta:1
           ~epsilon:1.5))

(* Random height matrices for the balancing properties below. *)
let random_heights rng n =
  let heights = Array.make_matrix n n 0 in
  for v = 0 to n - 1 do
    for d = 0 to n - 1 do
      if v <> d && Prng.bool rng then heights.(v).(d) <- Prng.int rng 6
    done
  done;
  heights

let buffers_of_heights heights =
  let n = Array.length heights in
  let b = Buffers.create n in
  for v = 0 to n - 1 do
    for d = 0 to n - 1 do
      for _ = 1 to heights.(v).(d) do
        Buffers.force_add b v d
      done
    done
  done;
  b

(* Decisions must depend only on the height matrix, never on the order the
   hash-backed buffers happened to be built in — the incremental decision
   cache relies on this to reuse decisions computed at different times. *)
let test_balancing_order_independent =
  qtest "decisions ignore buffer construction order" ~count:150 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 6 in
      let heights = random_heights rng n in
      let forward = buffers_of_heights heights in
      (* Same matrix, built backwards with add/remove churn pushing the
         hashtables through a different insertion history. *)
      let churned = Buffers.create n in
      for v = n - 1 downto 0 do
        for d = n - 1 downto 0 do
          if v <> d then begin
            Buffers.force_add churned v d;
            for _ = 1 to heights.(v).(d) do
              Buffers.force_add churned v d
            done;
            Buffers.remove churned v d
          end
        done
      done;
      let p =
        Balancing.params ~threshold:(Prng.uniform rng) ~gamma:(Prng.uniform rng)
          ~capacity:100
      in
      let cost = Prng.uniform rng in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            if
              Reference_balancing.best_toward forward p ~cost ~src ~dst
              <> Reference_balancing.best_toward churned p ~cost ~src ~dst
            then ok := false;
            if
              src < dst
              && Reference_balancing.best_either forward p ~cost ~u:src ~v:dst
                 <> Reference_balancing.best_either churned p ~cost ~u:src ~v:dst
            then ok := false
          end
        done
      done;
      !ok)

(* best_toward against a brute-force oracle over the full matrix: the chosen
   destination is the argmax (ties to the smaller index) and its gain clears
   the threshold strictly.  best_seen is checked the same way against a
   seen table drawn apart from the live heights, as the kernel's
   advertised heights are: it differs at shared destinations and holds
   destinations that only the receiver has. *)
let test_balancing_matches_oracle =
  qtest "best_toward = brute-force argmax, gain > threshold" ~count:150 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 6 in
      let heights = random_heights rng n in
      let b = buffers_of_heights heights in
      let seen_heights = random_heights rng n in
      let seen = Buffers.Sparse.create n in
      Array.iteri
        (fun v row -> Array.iteri (fun d h -> Buffers.Sparse.set seen v d h) row)
        seen_heights;
      let p =
        Balancing.params ~threshold:(Prng.uniform rng *. 2.) ~gamma:(Prng.uniform rng)
          ~capacity:100
      in
      let cost = Prng.uniform rng in
      let oracle ~src receiver =
        let expected = ref None in
        for d = 0 to n - 1 do
          if heights.(src).(d) > 0 then begin
            let gain =
              float_of_int (heights.(src).(d) - receiver.(d)) -. (p.Balancing.gamma *. cost)
            in
            if gain > p.Balancing.threshold then
              match !expected with
              | Some (_, bg) when bg >= gain -> ()
              | _ -> expected := Some (d, gain)
          end
        done;
        !expected
      in
      let agrees ~src ~dst decision expected =
        match (decision, expected) with
        | None, None -> true
        | Some dec, Some (d, gain) ->
            dec.Reference_balancing.dest = d
            && dec.Reference_balancing.gain = gain
            && dec.Reference_balancing.gain > p.Balancing.threshold
            && dec.Reference_balancing.src = src
            && dec.Reference_balancing.dst = dst
        | _ -> false
      in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            if
              not
                (agrees ~src ~dst
                   (Reference_balancing.best_toward b p ~cost ~src ~dst)
                   (oracle ~src heights.(dst)))
            then ok := false;
            if
              not
                (agrees ~src ~dst
                   (Reference_balancing.best_seen b seen p ~cost ~src ~dst)
                   (oracle ~src seen_heights.(dst)))
            then ok := false
          end
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let workload_config = { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }

(* Traffic over many distinct pairs: 64 flows for 200 attempts, so most
   pairs are routed only a few times. *)
let many_pairs ?conflict config ~rng ~graph ~cost =
  Workload.flows ?conflict config ~rng ~graph ~cost ~num_flows:64

let test_workload_counts =
  qtest "injections = certified deliveries" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = many_pairs workload_config ~rng ~graph:g ~cost:Cost.length in
      let injected = Array.fold_left (fun a l -> a + List.length l) 0 w.Workload.injections in
      injected = w.Workload.opt.Workload.deliveries
      && w.Workload.opt.Workload.deliveries <= workload_config.Workload.attempts)

let test_workload_activations_unique =
  qtest "activation lists are duplicate-free" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = many_pairs workload_config ~rng ~graph:g ~cost:Cost.length in
      Array.for_all
        (fun l -> List.length l = List.length (List.sort_uniq compare l))
        w.Workload.activations)

let test_workload_interference_free =
  qtest "scenario-1 activations are non-interfering" ~count:40 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        many_pairs ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length
      in
      Array.for_all (fun l -> Conflict.independent c l) w.Workload.activations)

let test_workload_stats_sane =
  qtest "opt stats are internally consistent" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = many_pairs workload_config ~rng ~graph:g ~cost:Cost.length in
      let opt = w.Workload.opt in
      opt.Workload.max_buffer >= 1
      && opt.Workload.delta >= 1
      && (opt.Workload.deliveries = 0
         || (opt.Workload.avg_hops >= 1.
            && close ~eps:1e-9 opt.Workload.avg_cost
                 (opt.Workload.total_cost /. float_of_int opt.Workload.deliveries))))

let test_workload_flows_concentrate () =
  let _, g, _ = overlay_instance 3 in
  let rng = Prng.create 3 in
  let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
  let pairs =
    Array.to_list w.Workload.injections |> List.concat |> List.sort_uniq compare
  in
  Alcotest.(check bool) "at most 2 distinct pairs" true (List.length pairs <= 2)

let test_workload_single_destination () =
  let _, g, _ = overlay_instance 4 in
  let rng = Prng.create 4 in
  let w =
    Workload.single_destination workload_config ~rng ~graph:g ~cost:Cost.length ~sink:0
  in
  Array.iter
    (fun l -> List.iter (fun (_, dst) -> Alcotest.(check int) "sink" 0 dst) l)
    w.Workload.injections

(* ------------------------------------------------------------------ *)
(* Certificate                                                         *)

let costs = [| Cost.length; Cost.energy ~kappa:2.; Cost.hops |]

let certificate (points, g, c) ~cost w =
  Certificate.check ~interference:(c.Conflict.model, points) ~graph:g ~cost w

(* Every certified generator — flows over many pairs and over three,
   with a hop limit, single destination from any node or from a few —
   with interference-free certification on or off, and slacks from 0 to
   12. *)
let test_certificate_accepts =
  qtest "checker accepts every certified generator" ~count:120 seed_gen (fun seed ->
      let ((_, g, c) as instance) = overlay_instance seed in
      let rng = Prng.create seed in
      let free = seed mod 2 = 0 in
      let conflict = if free then Some c else None in
      let config = { workload_config with Workload.slack = seed mod 13; interference_free = free } in
      let cost = costs.(seed / 2 mod 3) in
      let w =
        match seed / 6 mod 5 with
        | 0 -> many_pairs ?conflict config ~rng ~graph:g ~cost
        | 1 -> Workload.flows ?conflict config ~rng ~graph:g ~cost ~num_flows:3
        | 2 -> Workload.flows ?conflict ~max_hops:2 config ~rng ~graph:g ~cost ~num_flows:3
        | 3 -> Workload.single_destination ?conflict config ~rng ~graph:g ~cost ~sink:0
        | _ ->
            Workload.single_destination ?conflict ~sources:[| 1; 3; 5 |] config ~rng ~graph:g
              ~cost ~sink:0
      in
      let s = w.Workload.schedule in
      s.Workload.slack = config.Workload.slack
      && Bool.equal s.Workload.interference_free free
      &&
      match certificate instance ~cost w with
      | Ok { Certificate.packets; hops } ->
          packets = w.Workload.opt.Workload.deliveries && hops = Array.length s.Workload.hop_edge
      | Error reason -> QCheck2.Test.fail_report reason)

let add_packet (s : Workload.schedule) ~src ~dst ~t0 edges slots =
  let packets = Array.length s.Workload.src in
  {
    s with
    Workload.src = Array.append s.Workload.src [| src |];
    dst = Array.append s.Workload.dst [| dst |];
    t0 = Array.append s.Workload.t0 [| t0 |];
    first_hop =
      Array.append s.Workload.first_hop [| s.Workload.first_hop.(packets) + Array.length edges |];
    hop_edge = Array.append s.Workload.hop_edge edges;
    hop_slot = Array.append s.Workload.hop_slot slots;
  }

(* Each mutation breaks one property the checker states, and the first
   violation it reports names that property. *)
let test_certificate_rejects_mutations =
  qtest "checker rejects mutated certificates" ~count:60 seed_gen (fun seed ->
      let ((points, g, c) as instance) = overlay_instance seed in
      let config = { workload_config with Workload.interference_free = true } in
      let w =
        Workload.flows ~conflict:c config ~rng:(Prng.create seed) ~graph:g ~cost:Cost.length
          ~num_flows:3
      in
      let s = w.Workload.schedule in
      let rejects expect w' =
        match certificate instance ~cost:Cost.length w' with
        | Ok _ -> QCheck2.Test.fail_reportf "accepted a certificate whose %s is wrong" expect
        | Error reason -> contains reason expect || QCheck2.Test.fail_report reason
      in
      let packets = Array.length s.Workload.src in
      packets = 0
      ||
      let p = seed mod packets in
      let first = s.Workload.first_hop.(p) and last = s.Workload.first_hop.(p + 1) - 1 in
      let t0 = s.Workload.t0.(p) in
      let slots f =
        let a = Array.copy s.Workload.hop_slot in
        f a;
        { w with Workload.schedule = { s with Workload.hop_slot = a } }
      in
      let cut a = Array.append (Array.sub a 0 first) (Array.sub a (first + 1) (Array.length a - first - 1)) in
      let dropped =
        {
          s with
          Workload.first_hop = Array.mapi (fun i x -> if i > p then x - 1 else x) s.Workload.first_hop;
          hop_edge = cut s.Workload.hop_edge;
          hop_slot = cut s.Workload.hop_slot;
        }
      in
      let hops a = Array.sub a first (last - first + 1) in
      (* An inner hop offset past the end of the hop arrays, as in
         [| 0; hops + 2; hops |]. *)
      let overrun =
        {
          s with
          Workload.first_hop =
            Array.mapi
              (fun i x -> if i = 1 then Array.length s.Workload.hop_edge + 2 else x)
              s.Workload.first_hop;
        }
      in
      let twice =
        add_packet s ~src:s.Workload.src.(p) ~dst:s.Workload.dst.(p) ~t0
          (hops s.Workload.hop_edge) (hops s.Workload.hop_slot)
      in
      (* An edge that interferes with the packet's first hop, crossed by a
         one-hop packet in that hop's slot. *)
      let e = s.Workload.hop_edge.(first) and slot = s.Workload.hop_slot.(first) in
      let pair e = (Graph.edge_u g e, Graph.edge_v g e) in
      let intruder =
        List.find_opt
          (fun e' -> e' <> e && Model.interferes c.Conflict.model ~points (pair e) (pair e'))
          (List.init (Graph.num_edges g) Fun.id)
      in
      let o = w.Workload.opt in
      certificate instance ~cost:Cost.length w |> Result.is_ok
      && rejects "packet" { w with Workload.schedule = dropped }
      && rejects "outside"
           (slots (fun a -> a.(last) <- t0 + (last - first + 1) + s.Workload.slack + 1))
      && rejects "not after" (slots (fun a -> a.(first) <- t0))
      && rejects "twice" { w with Workload.schedule = twice }
      && (packets < 2 || rejects "hop offsets" { w with Workload.schedule = overrun })
      && (match intruder with
         | None -> true
         | Some e' ->
             rejects "interfere"
               {
                 w with
                 Workload.schedule =
                   add_packet s ~src:(Graph.edge_u g e') ~dst:(Graph.edge_v g e') ~t0:(slot - 1)
                     [| e' |] [| slot |];
               })
      && rejects "max_buffer"
           { w with Workload.opt = { o with Workload.max_buffer = o.Workload.max_buffer + 1 } }
      && rejects "total_cost"
           { w with Workload.opt = { o with Workload.total_cost = Float.succ o.Workload.total_cost } }
      && rejects "delta" { w with Workload.opt = { o with Workload.delta = o.Workload.delta + 1 } })

let same_workload (a : Workload.t) (b : Workload.t) =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let o = a.Workload.opt and o' = b.Workload.opt in
  o.Workload.deliveries = o'.Workload.deliveries
  && bits o.Workload.total_cost o'.Workload.total_cost
  && bits o.Workload.avg_cost o'.Workload.avg_cost
  && bits o.Workload.avg_hops o'.Workload.avg_hops
  && o.Workload.max_buffer = o'.Workload.max_buffer
  && o.Workload.delta = o'.Workload.delta
  && a.Workload.horizon = b.Workload.horizon
  && a.Workload.injections = b.Workload.injections
  && a.Workload.activations = b.Workload.activations
  && a.Workload.schedule = b.Workload.schedule

(* At least 300 uniform points: flows there run 4–10 hops, so with a
   slack of 0–2 and interference-free certification most attempts fail
   their search (85–95% on sampled seeds; 30–50% without interference). *)
let large_instance seed =
  let rng = Prng.create seed in
  let points = Adhoc_pointset.Generators.uniform rng (300 + Prng.int rng 100) in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  (points, g, Conflict.build (Model.make ~delta:0.5) ~points g)

let test_certifier_matches_reference =
  qtest "flat certifier = list-based reference" ~count:80 seed_gen (fun seed ->
      let family = seed mod 4 in
      let ((_, g, c) as instance) = if family = 0 then large_instance seed else overlay_instance seed in
      let free = seed / 4 mod 2 = 0 in
      let conflict = if free then Some c else None in
      let cost = costs.(seed / 8 mod 3) in
      let config horizon attempts slack =
        { Workload.horizon; attempts; slack; interference_free = free }
      in
      let rng () = Prng.create seed in
      let w, r =
        match family with
        | 0 ->
            let config = config 100 800 (seed / 24 mod 3) in
            ( Workload.flows ?conflict config ~rng:(rng ()) ~graph:g ~cost ~num_flows:8,
              Reference_workload.flows ?conflict config ~rng:(rng ()) ~graph:g ~cost ~num_flows:8 )
        | 1 ->
            (* A fresh source on most attempts, all toward one sink. *)
            let config = config 300 300 10 in
            ( Workload.single_destination ?conflict config ~rng:(rng ()) ~graph:g ~cost ~sink:0,
              Reference_workload.single_destination ?conflict config ~rng:(rng ()) ~graph:g ~cost
                ~sink:0 )
        | 2 ->
            (* Repeated pairs: one flow, so every attempt retries one route. *)
            let config = config 150 300 (seed / 24 mod 6) in
            ( Workload.flows ?conflict config ~rng:(rng ()) ~graph:g ~cost ~num_flows:1,
              Reference_workload.flows ?conflict config ~rng:(rng ()) ~graph:g ~cost ~num_flows:1 )
        | _ ->
            (* Windows as long as the horizon: a k-hop route fits only
               with t0 = 0 and its last slot at the horizon's last step. *)
            let horizon = 6 + (seed / 24 mod 20) in
            let config = config horizon 200 (horizon - 2 - (seed / 480 mod 3)) in
            if seed / 8 mod 2 = 0 then
              ( many_pairs ?conflict config ~rng:(rng ()) ~graph:g ~cost,
                Reference_workload.flows ?conflict config ~rng:(rng ()) ~graph:g ~cost
                  ~num_flows:64 )
            else
              ( Workload.single_destination ?conflict config ~rng:(rng ()) ~graph:g ~cost ~sink:1,
                Reference_workload.single_destination ?conflict config ~rng:(rng ()) ~graph:g ~cost
                  ~sink:1 )
      in
      (match certificate instance ~cost r with
      | Ok _ -> true
      | Error reason -> QCheck2.Test.fail_reportf "reference certificate: %s" reason)
      && same_workload w r)

(* s1-flows' certification (bench/e2e): a jittered grid, n = 1024, seed 1,
   1.5× the critical range, Δ = 0.5, 16 flows of at most 3 hops, horizon
   12000, 24000 attempts, interference-free.  The list-based certifier
   allocated 12.81M minor words here; the flat one about 2.3M. *)
let test_certify_allocation () =
  let rng = Prng.create 1 in
  let points = Adhoc_pointset.Generators.jittered_grid ~jitter:0.1 rng 1024 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  let config = { Workload.horizon = 12000; attempts = 24000; slack = 12; interference_free = true } in
  let cost = Cost.energy ~kappa:2. in
  let module Gcstat = Adhoc_obs.Gcstat in
  let before = Gcstat.read () in
  let w = Workload.flows ~conflict:c ~max_hops:3 config ~rng ~graph:g ~cost ~num_flows:16 in
  let after = Gcstat.read () in
  let words = (Gcstat.delta ~before ~after).Gcstat.minor_words in
  Alcotest.(check int) "deliveries" 22789 w.Workload.opt.Workload.deliveries;
  if words > 4e6 then Alcotest.failf "Workload.flows allocated %.0f minor words" words;
  match certificate (points, g, c) ~cost w with
  | Ok _ -> ()
  | Error reason -> Alcotest.fail reason

(* The certifier keeps one path per distinct pair, not one Dijkstra
   result (three n-sized arrays) per source.  single_destination on 2048
   uniform points draws about 1000 distinct sources in 1000 attempts: a
   result kept per source raised the peak resident set by 44 MB, a path
   per pair by 4.  test/dune also runs this group alone, in a process of
   its own, where the peak is the certification's; within the whole
   suite it is shared with every earlier test. *)
let test_certify_retention () =
  let rng = Prng.create 5 in
  let points = Adhoc_pointset.Generators.uniform rng 2048 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let config = { Workload.horizon = 4000; attempts = 1000; slack = 12; interference_free = false } in
  let before = peak_rss_mb () in
  let w = Workload.single_destination config ~rng ~graph:g ~cost:Cost.length ~sink:0 in
  Alcotest.(check int) "deliveries" 1000 w.Workload.opt.Workload.deliveries;
  match (before, peak_rss_mb ()) with
  | Some before, Some after when after -. before > 20. ->
      Alcotest.failf "single_destination raised the peak resident set by %.1f MB" (after -. before)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_conservation =
  qtest "packets conserved: injected = delivered + remaining" ~count:30 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let stats = Engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining
      && stats.Engine.injected + stats.Engine.dropped
         = w.Workload.opt.Workload.deliveries)

let test_engine_mac_conservation =
  qtest "conservation under random MAC with collisions" ~count:20 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
      let mac = Mac.random_interference ~rng:(Prng.create (seed + 1)) c in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let stats =
        Engine.run_with_mac ~cooldown:100 ~collisions:c ~graph:g ~cost:Cost.length ~params ~mac w
      in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining
      && stats.Engine.failed_sends <= stats.Engine.sends)

let test_engine_line_delivers () =
  (* 0 -- 1 -- 2; inject at 0 toward 2; all edges always active. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let horizon = 50 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 2); (0, 2); (0, 2) ];
  let activations = Array.make horizon [ 0; 1 ] in
  let w =
    {
      Workload.horizon;
      injections;
      activations;
      opt =
        {
          Workload.deliveries = 3;
          total_cost = 6.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 3;
          delta = 2;
        };
      schedule = Workload.no_schedule;
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let stats = Engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "all delivered" 3 stats.Engine.delivered;
  Alcotest.(check int) "nothing remains" 0 stats.Engine.remaining;
  Alcotest.(check bool) "ratios" true (Float.equal (Engine.throughput_ratio stats w.Workload.opt) 1.)

(* Sends of equal gain from one buffer apply in the order the step lists
   them, so application sorts stably.  Node 0 holds one packet for node 3
   and can send it to 1 (edge 0) or to 2 (edge 1) at the same gain: edge 0
   comes first in the active set and in the MAC's grants, so it wins. *)
let test_engine_ties_in_listed_order () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  List.iter
    (fun (name, activation) ->
      let sends = ref [] in
      let log = Event.create () in
      Event.add_observer log (fun _ -> function
        | Event.Send { step; edge; _ } -> sends := (step, edge) :: !sends
        | _ -> ());
      let (_ : Engine.stats) =
        Engine.run ~obs:(Adhoc_obs.create ~events:log ()) ~who:"test" ~params
          ~heights:Engine.Live ~absorb:Engine.Destination
          ~injections:(fun t -> if t = 0 then [ (0, 3) ] else [])
          [ { Engine.graph = g; cost = Cost.length; activation; steps = 2; epoch = None } ]
      in
      Alcotest.(check (list (pair int int))) name [ (1, 0) ] (List.rev !sends))
    [ ("rounds", Engine.Rounds None); ("all MAC", Engine.Arbitrated (Array_mac.all, None)) ]

let test_engine_phases_share_nodes () =
  let line n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1, 1.))) in
  let phase n =
    {
      Engine.graph = line n;
      cost = Cost.length;
      activation = Engine.Rounds None;
      steps = 3;
      epoch = None;
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  List.iter
    (fun (a, b) ->
      Alcotest.check_raises
        (Printf.sprintf "%d then %d nodes" a b)
        (Invalid_argument "test: phases disagree on node count")
        (fun () ->
          ignore
            (Engine.run ~who:"test" ~params ~heights:Engine.Live ~absorb:Engine.Destination
               ~injections:(fun t -> if t = 0 then [ (0, 3) ] else [])
               [ phase a; phase b ])))
    [ (4, 6); (6, 4) ]

let test_engine_deterministic () =
  let run () =
    let _, g, c = overlay_instance 9 in
    let rng = Prng.create 9 in
    let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
    let mac = Mac.random_interference ~rng:(Prng.create 10) c in
    let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
    Engine.run_with_mac ~collisions:c ~graph:g ~cost:Cost.length ~params ~mac w
  in
  Alcotest.(check bool) "same stats" true (run () = run ())

let test_engine_capacity_drops () =
  (* Tiny capacity and an isolated pair with no activations: everything
     beyond the cap is dropped at injection. *)
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let horizon = 10 in
  let injections = Array.make horizon [] in
  for t = 0 to horizon - 1 do
    injections.(t) <- [ (0, 1) ]
  done;
  let w =
    {
      Workload.horizon;
      injections;
      activations = Array.make horizon [];
      opt =
        {
          Workload.deliveries = 10;
          total_cost = 10.;
          avg_cost = 1.;
          avg_hops = 1.;
          max_buffer = 1;
          delta = 1;
        };
      schedule = Workload.no_schedule;
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:3 in
  let stats = Engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "admitted up to cap" 3 stats.Engine.injected;
  Alcotest.(check int) "rest dropped" 7 stats.Engine.dropped

let test_cost_accounting () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 2.) ] in
  let horizon = 5 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 1) ];
  let activations = Array.make horizon [ 0 ] in
  let w =
    {
      Workload.horizon;
      injections;
      activations;
      opt =
        {
          Workload.deliveries = 1;
          total_cost = 4.;
          avg_cost = 4.;
          avg_hops = 1.;
          max_buffer = 1;
          delta = 1;
        };
      schedule = Workload.no_schedule;
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let stats = Engine.run_mac_given ~graph:g ~cost:(Cost.energy ~kappa:2.) ~params w in
  Alcotest.(check int) "delivered" 1 stats.Engine.delivered;
  check_close "energy cost 2^2" 4. stats.Engine.total_cost;
  check_close "cost ratio" 1. (Engine.cost_ratio stats w.Workload.opt)


(* ------------------------------------------------------------------ *)
(* Packets, tracked through the event log                              *)

let test_packet_lifecycle () =
  let m = Adhoc_obs.Mirror.create () in
  let feed e = Adhoc_obs.Mirror.feed m e in
  ignore (feed (Event.Inject { step = 10; src = 1; dst = 2; admitted = true }));
  let p =
    match
      feed
        (Event.Send
           { step = 12; edge = 0; src = 1; dst = 3; dest = 2; cost = 1.; outcome = Event.Moved })
    with
    | Some p -> p
    | None -> Alcotest.fail "the send moved no packet"
  in
  Alcotest.(check bool) "in flight" false (Adhoc_obs.Mirror.delivered p);
  Alcotest.check_raises "latency before delivery"
    (Invalid_argument "Mirror.latency: packet not delivered") (fun () ->
      ignore (Adhoc_obs.Mirror.latency p));
  ignore
    (feed
       (Event.Send
          { step = 25; edge = 1; src = 3; dst = 2; dest = 2; cost = 1.; outcome = Event.Delivered }));
  Alcotest.(check bool) "delivered" true (Adhoc_obs.Mirror.delivered p);
  Alcotest.(check int) "latency" 15 (Adhoc_obs.Mirror.latency p);
  Alcotest.(check int) "waited at node 3" 13 p.Adhoc_obs.Mirror.waited

let tracked_line_workload () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let horizon = 50 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 2); (0, 2); (0, 2) ];
  let activations = Array.make horizon [ 0; 1 ] in
  ( g,
    {
      Workload.horizon;
      injections;
      activations;
      opt =
        {
          Workload.deliveries = 3;
          total_cost = 6.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 3;
          delta = 2;
        };
      schedule = Workload.no_schedule;
    } )

let test_journey_latency () =
  let g, w = tracked_line_workload () in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let log = Event.create () in
  let stats =
    Engine.run_mac_given ~obs:(Adhoc_obs.create ~events:log ()) ~graph:g ~cost:Cost.length
      ~params w
  in
  let j = Journey.analyze (Event.to_array log) in
  Alcotest.(check int) "all delivered" 3 stats.Engine.delivered;
  Alcotest.(check bool) "positive latency" true (j.Journey.latency_mean > 0.);
  Alcotest.(check bool) "p95 >= median" true (j.Journey.latency_p95 >= j.Journey.latency_median);
  (* Every packet needs 2 hops on the line. *)
  check_close "hops" 2. j.Journey.hops_mean;
  check_close "energy" 2. j.Journey.energy_per_delivered;
  List.iter
    (fun p ->
      Alcotest.(check bool) "delivered" true (Adhoc_obs.Mirror.delivered p);
      Alcotest.(check int) "hop count" 2 p.Adhoc_obs.Mirror.hops)
    j.Journey.packets

(* ------------------------------------------------------------------ *)
(* Geographic routing                                                  *)

let geo_instance seed =
  let points = points_of_seed ~min_n:10 ~max_n:40 seed in
  let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
  (points, Adhoc_topo.Udg.build ~range points, Adhoc_topo.Gabriel.build ~range points)

let test_geo_greedy_route_valid =
  qtest "greedy routes walk graph edges and shrink distance" ~count:60 seed_gen (fun seed ->
      let points, g, _ = geo_instance seed in
      let rng = Prng.create (seed + 5) in
      let n = Array.length points in
      let src = Prng.int rng n and dst = Prng.int rng n in
      QCheck2.assume (src <> dst);
      match Geo.greedy g points ~src ~dst with
      | None -> true
      | Some r ->
          let rec check = function
            | a :: (b :: _ as rest) ->
                Graph.mem_edge g a b
                && Adhoc_geom.Point.dist points.(b) points.(dst)
                   < Adhoc_geom.Point.dist points.(a) points.(dst)
                && check rest
            | _ -> true
          in
          List.hd r.Geo.nodes = src
          && List.nth r.Geo.nodes r.Geo.hops = dst
          && check r.Geo.nodes
          && r.Geo.recovery_hops = 0)

let test_geo_face_delivers =
  qtest "greedy_face always delivers on connected instances" ~count:60 seed_gen (fun seed ->
      let points, g, gabriel = geo_instance seed in
      QCheck2.assume (Adhoc_graph.Components.is_connected gabriel);
      let rng = Prng.create (seed + 6) in
      let n = Array.length points in
      let src = Prng.int rng n and dst = Prng.int rng n in
      QCheck2.assume (src <> dst);
      match Geo.greedy_face ~planar:gabriel g points ~src ~dst with
      | None -> false
      | Some r -> List.hd r.Geo.nodes = src && List.nth r.Geo.nodes r.Geo.hops = dst)

let test_geo_route_metrics () =
  let points = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let g = Graph.geometric points [ (0, 1); (1, 2) ] in
  match Geo.greedy g points ~src:0 ~dst:2 with
  | None -> Alcotest.fail "expected route"
  | Some r ->
      Alcotest.(check int) "hops" 2 r.Geo.hops;
      check_close "length" 2. r.Geo.length;
      check_close "energy" 2. r.Geo.energy

let test_geo_local_minimum () =
  (* A void: the source's only neighbour is farther from the destination,
     so greedy fails; the detour goes up and over. *)
  let points =
    [| Point.make 0. 0.; Point.make (-0.5) 1.5; Point.make 1.5 2.0; Point.make 3. 0. |]
  in
  let g = Graph.geometric points [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "greedy stuck" true (Geo.greedy g points ~src:0 ~dst:3 = None);
  match Geo.greedy_face ~planar:g g points ~src:0 ~dst:3 with
  | None -> Alcotest.fail "face routing should recover"
  | Some r -> Alcotest.(check bool) "used recovery" true (r.Geo.recovery_hops > 0)

let test_geo_success_rate_bounds =
  qtest "success rate in [0,1]" ~count:20 seed_gen (fun seed ->
      let points, g, _ = geo_instance seed in
      let rate = Geo.success_rate g points ~rng:(Prng.create seed) ~trials:50 in
      rate >= 0. && rate <= 1.)


(* ------------------------------------------------------------------ *)
(* Epochs: a changing topology, one phase per epoch                    *)

let test_dynamic_engine_static_equals_epochs =
  qtest "one long epoch = several epochs of the same graph" ~count:15 seed_gen (fun seed ->
      let points, g, c = overlay_instance seed in
      ignore points;
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let rng = Prng.create seed in
      let n = Graph.n g in
      let flow = (Prng.int rng n, Prng.int rng n) in
      let injections t = if t < 200 && t mod 3 = 0 then [ flow ] else [] in
      let one = run_epochs ~params ~injections [ (g, c, 400) ] in
      let split = run_epochs ~params ~injections [ (g, c, 150); (g, c, 250) ] in
      one = split)

let test_dynamic_engine_survives_partition () =
  (* Epoch 1: only edge (0,1); epoch 2: only edge (1,2).  A packet for 2
     injected at step 0 must cross both epochs. *)
  let g1 = Graph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let g2 = Graph.of_edges ~n:3 [ (1, 2, 1.) ] in
  let points = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let c1 = Conflict.build (Model.make ~delta:0.1) ~points g1 in
  let c2 = Conflict.build (Model.make ~delta:0.1) ~points g2 in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (0, 2) ] else [] in
  let stats = run_epochs ~params ~injections [ (g1, c1, 10); (g2, c2, 10) ] in
  Alcotest.(check int) "delivered across the change" 1 stats.Engine.delivered;
  Alcotest.(check int) "nothing stuck" 0 stats.Engine.remaining

(* Caller-supplied injections are checked where they enter the buffers: a
   destination or source that is not a node is an argument error, not a
   packet parked under a phantom key or a bare index error. *)
let test_dynamic_injection_validation () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let points = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let c = Conflict.build (Model.make ~delta:0.1) ~points g in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let run pair =
    ignore
      (run_epochs ~params ~injections:(fun t -> if t = 2 then [ pair ] else []) [ (g, c, 5) ])
  in
  Alcotest.check_raises "destination past the last node"
    (Invalid_argument "test: injection destination 7 is not a node") (fun () -> run (0, 7));
  Alcotest.check_raises "negative destination"
    (Invalid_argument "test: injection destination -1 is not a node") (fun () -> run (0, -1));
  Alcotest.check_raises "source past the last node"
    (Invalid_argument "test: injection source 3 is not a node") (fun () -> run (3, 1))

let test_dynamic_engine_conservation =
  qtest "dynamic engine conserves packets" ~count:15 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:20 in
      let rng = Prng.create (seed + 2) in
      let n = Graph.n g in
      let injections t =
        if t < 100 then [ (Prng.int rng n, Prng.int rng n) ] else []
      in
      let stats = run_epochs ~params ~injections [ (g, c, 150); (g, c, 150) ] in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining)

(* ------------------------------------------------------------------ *)
(* Queueing disciplines                                                *)

let queueing_workload seed =
  let _, g, _ = overlay_instance seed in
  let rng = Prng.create seed in
  (g, Queueing.path_flows ~horizon:300 ~rng ~graph:g ~cost:Cost.length ~num_flows:3 ~rate:0.3)

let test_queueing_all_delivered =
  qtest "every discipline eventually delivers everything" ~count:15 seed_gen (fun seed ->
      let g, w = queueing_workload seed in
      List.for_all
        (fun d ->
          let s = Queueing.run ~cooldown:2000 ~graph:g ~cost:Cost.length d w in
          s.Queueing.delivered = s.Queueing.injected)
        [
          Queueing.Fifo;
          Queueing.Lifo;
          Queueing.Furthest_to_go;
          Queueing.Nearest_to_go;
          Queueing.Longest_in_system;
        ])

let test_queueing_injection_counts =
  qtest "injected matches the workload paths" ~count:15 seed_gen (fun seed ->
      let g, w = queueing_workload seed in
      let expected = Array.fold_left (fun a l -> a + List.length l) 0 w in
      let s = Queueing.run ~graph:g ~cost:Cost.length Queueing.Fifo w in
      s.Queueing.injected = expected && s.Queueing.delivered <= expected)

let test_queueing_single_path () =
  (* One flow on a line: FIFO latency equals path length once uncontended. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let w = Array.make 10 [] in
  w.(0) <- [ (0, 2, [ 0; 1 ]) ];
  let s = Queueing.run ~cooldown:10 ~graph:g ~cost:Cost.length Queueing.Fifo w in
  Alcotest.(check int) "delivered" 1 s.Queueing.delivered;
  check_close "two edge costs" 2. s.Queueing.total_cost;
  (* Injected at end of step 0; crosses at steps 1 and 2. *)
  check_close "latency" 2. s.Queueing.avg_latency

let test_queueing_ftg_priority () =
  (* Two packets contend at node 1 for edge (1,2): FTG sends the one with
     more remaining hops first. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let w = Array.make 5 [] in
  (* Long packet listed second: discipline, not insertion order, must pick. *)
  w.(0) <- [ (1, 2, [ 1 ]); (1, 3, [ 1; 2 ]) ];
  let run d = Queueing.run ~cooldown:10 ~graph:g ~cost:Cost.length d w in
  let ftg = run Queueing.Furthest_to_go in
  let ntg = run Queueing.Nearest_to_go in
  Alcotest.(check int) "both delivered (ftg)" 2 ftg.Queueing.delivered;
  Alcotest.(check int) "both delivered (ntg)" 2 ntg.Queueing.delivered;
  (* FTG: long packet goes first, so total latency is smaller for it. *)
  Alcotest.(check bool) "ftg latency <= ntg latency" true
    (ftg.Queueing.avg_latency <= ntg.Queueing.avg_latency +. 1e-9)

let test_queueing_names () =
  Alcotest.(check string) "fifo" "FIFO" (Queueing.discipline_name Queueing.Fifo);
  Alcotest.(check string) "ftg" "FTG" (Queueing.discipline_name Queueing.Furthest_to_go)


(* ------------------------------------------------------------------ *)
(* Group absorption (anycast)                                         *)

(* [members.(g)] absorb group [g]'s packets.  Returns the stats and the
   deliveries absorbed at each node. *)
let run_anycast ?pad ~graph ~params ~members ~injections ~steps () =
  let absorbed = Array.make (Graph.n graph) 0 in
  let stats =
    Engine.run ~who:"test" ~params ~heights:Engine.Live
      ~absorb:(Engine.Group { members; absorbed })
      ~injections
      [ { Engine.graph; cost = Cost.length; activation = Engine.Rounds pad; steps; epoch = None } ]
  in
  (stats, absorbed)

(* (node, deliveries) for every node that absorbed a packet. *)
let per_member absorbed =
  List.filter (fun (_, k) -> k > 0) (List.mapi (fun v k -> (v, k)) (Array.to_list absorbed))

let test_anycast_line () =
  (* Line 0-1-2-3-4; group {0, 4}: packets from 1 go left, from 3 go right. *)
  let g =
    Graph.of_edges ~n:5 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.) ]
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (1, 0); (3, 0) ] else [] in
  let s, absorbed =
    run_anycast ~graph:g ~params ~members:[| [| 0; 4 |] |] ~injections ~steps:25 ()
  in
  Alcotest.(check int) "both delivered" 2 s.Engine.delivered;
  Alcotest.(check int) "one hop each" 2 s.Engine.sends;
  Alcotest.(check int) "left sink" 1 absorbed.(0);
  Alcotest.(check int) "right sink" 1 absorbed.(4)

let test_anycast_conservation =
  qtest "anycast conserves packets" ~count:15 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let n = Graph.n g in
      QCheck2.assume (n >= 4);
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:30 in
      let rng = Prng.create seed in
      let members = [| [| 0 |]; [| 1; 2 |] |] in
      let injections t =
        if t < 100 then [ (Prng.int rng n, Prng.int rng 2) ] else []
      in
      let s, absorbed =
        run_anycast ~pad:c ~graph:g ~params ~members ~injections ~steps:400 ()
      in
      s.Engine.injected = s.Engine.delivered + s.Engine.remaining
      && List.for_all (fun (v, _) -> v <= 2) (per_member absorbed))

let test_anycast_injection_at_member () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (1, 0) ] else [] in
  let s, _ = run_anycast ~graph:g ~params ~members:[| [| 1 |] |] ~injections ~steps:3 () in
  Alcotest.(check int) "absorbed immediately" 1 s.Engine.delivered;
  Alcotest.(check int) "no transmissions" 0 s.Engine.sends

(* The kernel checks [Group] where it reads it, before the first step. *)
let test_anycast_validation () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  Alcotest.check_raises "empty group" (Invalid_argument "test: group 0 is empty") (fun () ->
      ignore
        (run_anycast ~graph:g ~params ~members:[| [||] |] ~injections:(fun _ -> []) ~steps:1 ()))

let test_anycast_member_not_a_node () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let run members =
    ignore (run_anycast ~graph:g ~params ~members ~injections:(fun _ -> []) ~steps:1 ())
  in
  Alcotest.check_raises "past the last node"
    (Invalid_argument "test: group 1 member 2 is not a node") (fun () ->
      run [| [| 0 |]; [| 1; 2 |] |]);
  Alcotest.check_raises "negative" (Invalid_argument "test: group 0 member -1 is not a node")
    (fun () -> run [| [| -1 |] |])

let test_anycast_short_absorbed () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  Alcotest.check_raises "one slot for two nodes"
    (Invalid_argument "test: absorbed has length 1, not the node count 2") (fun () ->
      ignore
        (Engine.run ~who:"test" ~params ~heights:Engine.Live
           ~absorb:(Engine.Group { members = [| [| 1 |] |]; absorbed = [| 0 |] })
           ~injections:(fun t -> if t = 0 then [ (0, 0) ] else [])
           [
             {
               Engine.graph = g;
               cost = Cost.length;
               activation = Engine.Rounds None;
               steps = 3;
               epoch = None;
             };
           ]))

let test_anycast_injection_validation () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let run pair =
    ignore
      (run_anycast ~graph:g ~params ~members:[| [| 1 |] |]
         ~injections:(fun t -> if t = 1 then [ pair ] else [])
         ~steps:3 ())
  in
  Alcotest.check_raises "source past the last node"
    (Invalid_argument "test: injection source 2 is not a node") (fun () -> run (2, 0));
  Alcotest.check_raises "bad group" (Invalid_argument "test: bad group index") (fun () ->
      run (0, 1))


(* ------------------------------------------------------------------ *)
(* Time-varying edge costs                                             *)

let test_dynamic_costs_steer_packets () =
  (* Diamond: 0 -(1)- {1,2} -(1)- 3.  The adversary makes the top route
     expensive in phase A and the bottom route expensive in phase B; the
     balancing rule must route around whichever side is costly. *)
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 3, 1.); (0, 2, 1.); (2, 3, 1.) ]
  in
  (* edge ids: 0 = (0,1) top-in, 1 = (1,3) top-out, 2 = (0,2), 3 = (2,3). *)
  let top = [ 0; 1 ] in
  let horizon = 400 in
  let injections = Array.make horizon [] in
  for t = 0 to horizon - 1 do
    if t mod 2 = 0 then injections.(t) <- [ (0, 3) ]
  done;
  let w =
    {
      Workload.horizon;
      injections;
      activations = Array.make horizon [ 0; 1; 2; 3 ];
      opt =
        {
          Workload.deliveries = 200;
          total_cost = 400.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 2;
          delta = 2;
        };
      schedule = Workload.no_schedule;
    }
  in
  let params = Balancing.params ~threshold:1. ~gamma:1. ~capacity:50 in
  let run_with ~expensive_top =
    let cost_at ~step:_ ~edge =
      if List.mem edge top = expensive_top then 20. else 1.
    in
    Engine.run_mac_given ~cooldown:400 ~cost_at ~graph:g ~cost:Cost.length ~params w
  in
  let a = run_with ~expensive_top:true in
  let b = run_with ~expensive_top:false in
  (* Both deliver; the expensive side is avoided, so total cost is close to
     the cheap-route cost (2 per packet), far from the expensive one. *)
  Alcotest.(check bool) "A delivers most" true (a.Engine.delivered > 150);
  Alcotest.(check bool) "B delivers most" true (b.Engine.delivered > 150);
  let per_pkt (s : Engine.stats) = s.Engine.total_cost /. float_of_int s.Engine.delivered in
  Alcotest.(check bool) "A avoids the expensive top" true (per_pkt a < 5.);
  Alcotest.(check bool) "B avoids the expensive bottom" true (per_pkt b < 5.)

let test_dynamic_costs_default_matches_static () =
  let _, g, c = overlay_instance 3 in
  let rng = Prng.create 3 in
  let w =
    Workload.flows ~conflict:c
      { workload_config with Workload.interference_free = true }
      ~rng ~graph:g ~cost:Cost.length ~num_flows:2
  in
  let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
  let plain = Engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w in
  let via_hook =
    Engine.run_mac_given ~cooldown:100
      ~cost_at:(fun ~step:_ ~edge -> Cost.length (Graph.length g edge))
      ~graph:g ~cost:Cost.length ~params w
  in
  Alcotest.(check bool) "identical stats" true (plain = via_hook)


(* ------------------------------------------------------------------ *)
(* Quantized control exchange                                          *)

let test_quantized_zero_matches_engine =
  qtest "quantum 0 = continuous exchange = plain engine" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let plain = Engine.run_mac_given ~cooldown:200 ~pad:c ~graph:g ~cost:Cost.length ~params w in
      let q0, _ = run_advertised ~cooldown:200 ~pad:c ~quantum:0 ~graph:g ~params w in
      (* The whole record, with the cost compared bit for bit. *)
      { q0 with Engine.total_cost = 0. } = { plain with Engine.total_cost = 0. }
      && Int64.equal
           (Int64.bits_of_float q0.Engine.total_cost)
           (Int64.bits_of_float plain.Engine.total_cost))

let test_quantized_control_monotone =
  qtest "control traffic falls as the quantum grows" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:2. ~gamma:0.1 ~capacity:50 in
      let ctrl q = snd (run_advertised ~cooldown:100 ~pad:c ~quantum:q ~graph:g ~params w) in
      ctrl 0 >= ctrl 2 && ctrl 2 >= ctrl 8)

let test_quantized_conservation =
  qtest "quantized engine conserves packets" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create (seed + 4) in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let s, _ = run_advertised ~cooldown:200 ~pad:c ~quantum:3 ~graph:g ~params w in
      s.Engine.injected = s.Engine.delivered + s.Engine.remaining)

let test_quantized_negative_quantum () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  Alcotest.check_raises "quantum -1" (Invalid_argument "test: negative quantum -1") (fun () ->
      ignore
        (Engine.run ~who:"test" ~params
           ~heights:(Engine.Advertised { quantum = -1; adverts = ref 0 })
           ~absorb:Engine.Destination ~injections:(fun _ -> [])
           [
             {
               Engine.graph = g;
               cost = Cost.length;
               activation = Engine.Rounds None;
               steps = 1;
               epoch = None;
             };
           ]))


(* ------------------------------------------------------------------ *)
(* Parallel decision fan-out: decide-parallel / apply-sequential must
   reproduce the sequential path bit-for-bit at every pool size — not
   just the aggregate stats but the full observable record: the
   adhoc-events/1 log bytes and the adhoc-live/1 snapshot stream. *)

module Pool = Adhoc_util.Pool

let jobs_sweep =
  let base = [ 1; 2; 4 ] in
  let e = env_jobs () in
  if List.mem e base then base else base @ [ e ]

(* Run [f] against a sink carrying a fresh event log and live recorder;
   return its result plus both streams' JSONL bytes (round-tripped
   through a scratch file — the writers are out_channel based). *)
let with_streams f =
  let events = Adhoc_obs.Event.create () in
  let live = Adhoc_obs.Live.create ~window:25 () in
  Adhoc_obs.Live.attach live events;
  let sink = Adhoc_obs.create ~events () in
  let result = f sink in
  let tmp = Filename.temp_file "adhoc-par" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let slurp file =
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      Adhoc_obs.Event.save_jsonl events tmp;
      let ev = slurp tmp in
      Adhoc_obs.Live.save_jsonl live tmp;
      let lv = slurp tmp in
      (result, ev, lv))

let pool_invariant run =
  let reference = with_streams (fun sink -> run ~obs:sink ~pool:None) in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          with_streams (fun sink -> run ~obs:sink ~pool:(Some p)) = reference))
    jobs_sweep

let par_workload seed c g =
  let rng = Prng.create seed in
  Workload.flows ~conflict:c
    { workload_config with Workload.interference_free = true }
    ~rng ~graph:g ~cost:Cost.length ~num_flows:2

let test_engine_pool_invariant =
  qtest "mac-given engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          Engine.run_mac_given ~cooldown:100 ~obs ?pool ~pad:c ~graph:g ~cost:Cost.length
            ~params w))

(* The per-packet view of the same run: Journey's replay of its log,
   with the run's stats beside it. *)
let test_tracked_pool_invariant =
  qtest "tracked engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          let stats =
            Engine.run_mac_given ~cooldown:100 ~obs ?pool ~pad:c ~graph:g ~cost:Cost.length
              ~params w
          in
          let events =
            match obs.Adhoc_obs.events with Some log -> Event.to_array log | None -> [||]
          in
          (stats, Journey.analyze events)))

let test_engine_mac_pool_invariant =
  qtest "random-MAC engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          (* A fresh identically-seeded MAC per run: the MAC draw is part
             of the replayed input, not of the engine under test. *)
          let mac = Mac.random_interference ~rng:(Prng.create (seed + 1)) c in
          Engine.run_with_mac ~cooldown:100 ~obs ?pool ~collisions:c ~graph:g
            ~cost:Cost.length ~params ~mac w))

let test_dynamic_pool_invariant =
  qtest "dynamic engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:20 in
      let rng = Prng.create (seed + 1) in
      let n = Graph.n g in
      let flow = (Prng.int rng n, Prng.int rng n) in
      let flow' = (Prng.int rng n, Prng.int rng n) in
      let injections t =
        if t >= 150 then [] else if t mod 3 = 0 then [ flow ] else [ flow' ]
      in
      pool_invariant (fun ~obs ~pool -> run_epochs ~obs ?pool ~params ~injections [ (g, c, 300) ]))

let test_quantized_pool_invariant =
  qtest "quantized engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      List.for_all
        (fun quantum ->
          pool_invariant (fun ~obs ~pool ->
              fst (run_advertised ~cooldown:100 ~obs ?pool ~pad:c ~quantum ~graph:g ~params w)))
        [ 0; 2 ])

(* The MAC's input under arbitration, against a full scan.  A recorder
   wraps the MAC; a replica Buffers.t follows the run through an observer
   on its event log ([Inject] and [Send] events), so when [select] is
   called it holds the step's starting heights.  The sink wraps the
   recorder in turn with Mac.instrument, which hands it the engine's
   arrays unchanged.  The arrays handed to [select] must list exactly
   every edge whose better direction ({!Reference_balancing.best_either})
   clears the threshold, in ascending edge id, with sender = src and
   benefit = gain. *)
let scan_requests g params replica =
  List.filter_map
    (fun e ->
      let u, v = Graph.endpoints g e in
      Reference_balancing.best_either replica params ~cost:(Cost.length (Graph.length g e)) ~u ~v
      |> Option.map (fun (d : Reference_balancing.decision) -> (e, d.src, d.gain)))
    (List.init (Graph.num_edges g) Fun.id)

let test_requests_match_scan =
  qtest "arbitrated requests = full scan of best_either" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let run ?pool ?collisions mac =
        let replica = Buffers.create (Graph.n g) in
        let log = Event.create () in
        Event.add_observer log (fun _ -> function
          | Event.Inject { src; dst; admitted = true; _ } when src <> dst ->
              Buffers.force_add replica src dst
          | Event.Send { src; dst; dest; outcome; _ } ->
              Buffers.remove replica src dest;
              if outcome = Event.Moved then Buffers.force_add replica dst dest
          | _ -> ());
        let ok = ref true in
        let mac =
          {
            mac with
            Mac.select =
              (fun ~step ~edge ~sender ~benefit ~count ~granted ->
                let asked = List.init count (fun i -> (edge.(i), sender.(i), benefit.(i))) in
                if asked <> scan_requests g params replica then ok := false;
                mac.Mac.select ~step ~edge ~sender ~benefit ~count ~granted);
          }
        in
        let stats =
          Engine.run_with_mac ~cooldown:100 ~obs:(Adhoc_obs.create ~events:log ()) ?pool
            ?collisions ~graph:g ~cost:Cost.length ~params ~mac w
        in
        !ok && Buffers.total replica = stats.Engine.remaining
      in
      (* A fresh MAC per run, so the random one draws the same coins. *)
      let macs =
        [ (fun () -> Array_mac.all); (fun () -> Mac.random_interference ~rng:(Prng.create (seed + 1)) c) ]
      in
      let all_cases ?pool () =
        List.for_all (fun mac -> run ?pool (mac ()) && run ?pool ~collisions:c (mac ())) macs
      in
      all_cases ()
      && List.for_all (fun jobs -> Pool.with_pool ~jobs (fun p -> all_cases ~pool:p ())) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

(* Regression: a run that delivers nothing must not report a *perfect*
   ratio.  cost_ratio is undefined (nan) without deliveries; throughput
   against an empty OPT is 0, not 1. *)
let test_ratios_edge_cases () =
  let stats =
    {
      Engine.steps = 10;
      injected = 0;
      dropped = 0;
      delivered = 0;
      sends = 0;
      failed_sends = 0;
      total_cost = 0.;
      peak_height = 0;
      remaining = 0;
    }
  in
  let opt_zero =
    { Workload.deliveries = 0; total_cost = 0.; avg_cost = 0.; avg_hops = 0.; max_buffer = 1; delta = 1 }
  in
  check_close "tput with opt=0" 0. (Engine.throughput_ratio stats opt_zero);
  Alcotest.(check bool) "cost undefined with no deliveries" true
    (Float.is_nan (Engine.cost_ratio stats opt_zero));
  let opt =
    { opt_zero with Workload.deliveries = 10; avg_cost = 2. }
  in
  check_close "tput zero" 0. (Engine.throughput_ratio stats opt);
  Alcotest.(check bool) "no deliveries, real OPT: still undefined" true
    (Float.is_nan (Engine.cost_ratio stats opt));
  (* Costs spent on failed sends alone must not look perfect either. *)
  let wasted = { stats with Engine.sends = 7; failed_sends = 7; total_cost = 30. } in
  Alcotest.(check bool) "wasted cost, no deliveries: undefined" true
    (Float.is_nan (Engine.cost_ratio wasted opt));
  let stats = { stats with Engine.delivered = 5; total_cost = 30. } in
  check_close "tput half" 0.5 (Engine.throughput_ratio stats opt);
  check_close "cost ratio 3" 3. (Engine.cost_ratio stats opt)

let test_flows_max_hops_honored =
  qtest "max_hops flows stay short when short pairs exist" ~count:20
    QCheck2.Gen.(pair seed_gen (int_range 2 4))
    (fun (seed, k) ->
      let _, g, _ = overlay_instance seed in
      QCheck2.assume (Graph.n g >= 8);
      let rng = Prng.create seed in
      let config = { workload_config with Workload.horizon = 100; attempts = 50 } in
      let w =
        Workload.flows ~max_hops:k config ~rng ~graph:g ~cost:Cost.length ~num_flows:3
      in
      (* Every injected pair should be within k hops (the retry budget is
         generous and small graphs always have adjacent pairs); a full
         BFS is the oracle. *)
      Array.for_all
        (fun l ->
          List.for_all
            (fun (src, dst) -> (Adhoc_graph.Bfs.hops g ~src).(dst) <= k)
            l)
        w.Workload.injections)

let test_workload_bad_configs () =
  let _, g, _ = overlay_instance 2 in
  let rng = Prng.create 2 in
  Alcotest.check_raises "zero horizon"
    (Invalid_argument "Workload: horizon must be positive") (fun () ->
      ignore
        (Workload.flows
           { Workload.horizon = 0; attempts = 1; slack = 1; interference_free = false }
           ~rng ~graph:g ~cost:Cost.length ~num_flows:1));
  Alcotest.check_raises "interference-free needs conflict"
    (Invalid_argument "Workload: interference_free requires a conflict structure")
    (fun () ->
      ignore
        (Workload.flows
           { Workload.horizon = 10; attempts = 1; slack = 1; interference_free = true }
           ~rng ~graph:g ~cost:Cost.length ~num_flows:1));
  Alcotest.check_raises "path_flows bad rate"
    (Invalid_argument "Queueing.path_flows: rate must be in (0,1]") (fun () ->
      ignore
        (Queueing.path_flows ~horizon:10 ~rng ~graph:g ~cost:Cost.length ~num_flows:1 ~rate:0.))

(* ------------------------------------------------------------------ *)
(* Pinned stats: the incremental decision cache, conflict-adjacency MAC
   and scratch-array rewrites must reproduce the original engine
   bit-for-bit.  These values were recorded from the pre-rewrite engine
   on a fixed instance (uniform seed 77, n = 24). *)

let pinned_points () = Adhoc_pointset.Generators.uniform (Prng.create 77) 24

let pinned_overlay factor =
  let points = pinned_points () in
  let range = factor *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  (g, c)

let pinned_instance () = pinned_overlay 2.

let check_pinned name (s : Engine.stats) ~injected ~dropped ~delivered ~sends ~failed
    ~cost ~peak ~remaining =
  Alcotest.(check int) (name ^ ": steps") 500 s.Engine.steps;
  Alcotest.(check int) (name ^ ": injected") injected s.Engine.injected;
  Alcotest.(check int) (name ^ ": dropped") dropped s.Engine.dropped;
  Alcotest.(check int) (name ^ ": delivered") delivered s.Engine.delivered;
  Alcotest.(check int) (name ^ ": sends") sends s.Engine.sends;
  Alcotest.(check int) (name ^ ": failed") failed s.Engine.failed_sends;
  check_close ~eps:1e-12 (name ^ ": cost") cost s.Engine.total_cost;
  Alcotest.(check int) (name ^ ": peak") peak s.Engine.peak_height;
  Alcotest.(check int) (name ^ ": remaining") remaining s.Engine.remaining

let pinned_params = lazy (Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50)

let pinned_given_workload (g, c) =
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = true }
  in
  Workload.flows ~conflict:c config ~rng:(Prng.create 77) ~graph:g ~cost:Cost.length
    ~num_flows:2

let test_engine_pinned_given () =
  let g, c = pinned_instance () in
  let w = pinned_given_workload (g, c) in
  let s =
    Engine.run_mac_given ~cooldown:200 ~pad:c ~graph:g ~cost:Cost.length
      ~params:(Lazy.force pinned_params) w
  in
  check_pinned "given+pad" s ~injected:155 ~dropped:0 ~delivered:132 ~sends:296 ~failed:0
    ~cost:80.380614734523775 ~peak:7 ~remaining:23

let pinned_mac_workload (g, _c) =
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }
  in
  Workload.flows config ~rng:(Prng.create 78) ~graph:g ~cost:Cost.length ~num_flows:2

(* Every MAC runs the same workload with collisions.  Honeycomb is
   Theorem 3.8's contention scheme (hexagon side from the overlay's
   range); granting every request makes every attempt collide here. *)
let run_pinned_mac mac_of =
  let g, c = pinned_instance () in
  Engine.run_with_mac ~cooldown:200 ~collisions:c ~graph:g ~cost:Cost.length
    ~params:(Lazy.force pinned_params) ~mac:(mac_of c) (pinned_mac_workload (g, c))

let test_engine_pinned_csma () =
  check_pinned "csma+collisions" (run_pinned_mac (Mac.csma ~rng:(Prng.create 79)))
    ~injected:200 ~dropped:0 ~delivered:152 ~sends:279 ~failed:0 ~cost:74.551424651997593
    ~peak:6 ~remaining:48

let test_engine_pinned_random_mac () =
  check_pinned "random-mac" (run_pinned_mac (Mac.random_interference ~rng:(Prng.create 80)))
    ~injected:123 ~dropped:77 ~delivered:6 ~sends:59 ~failed:4 ~cost:14.846177076478661
    ~peak:50 ~remaining:117

let test_engine_pinned_honeycomb () =
  let points = pinned_points () in
  let hc =
    Honeycomb.create ~delta:0.5 ~range:(2. *. Udg.critical_range points) ~threshold:1.
      ~rng:(Prng.create 83) points
  in
  check_pinned "honeycomb" (run_pinned_mac (fun _ -> Honeycomb.mac hc)) ~injected:149
    ~dropped:51 ~delivered:76 ~sends:87 ~failed:0 ~cost:25.839603220218734 ~peak:50
    ~remaining:73

let test_engine_pinned_greedy () =
  check_pinned "greedy-mac" (run_pinned_mac Array_mac.greedy_independent) ~injected:200 ~dropped:0
    ~delivered:178 ~sends:206 ~failed:0 ~cost:64.686718893328674 ~peak:5 ~remaining:22

let test_engine_pinned_color () =
  check_pinned "color-mac" (run_pinned_mac Array_mac.color) ~injected:185 ~dropped:15 ~delivered:86
    ~sends:322 ~failed:0 ~cost:79.362892574281162 ~peak:50 ~remaining:99

let test_engine_pinned_all () =
  check_pinned "all+collisions" (run_pinned_mac (fun _ -> Array_mac.all)) ~injected:100 ~dropped:100
    ~delivered:0 ~sends:7380 ~failed:7380 ~cost:1710.6509581360297 ~peak:50 ~remaining:100

(* The engine variants, pinned the same way.  The dynamic run crosses an
   epoch boundary onto a sparser overlay of the same points; its
   injections are three repeating flows plus a random pair every seventh
   step (three of which are self-injections). *)
let test_dynamic_pinned () =
  let g, c = pinned_instance () in
  let g2, c2 = pinned_overlay 1.5 in
  let rng = Prng.create 81 in
  let inj =
    Array.init 500 (fun t ->
        if t >= 300 then []
        else if t mod 7 = 0 then [ (Prng.int rng 24, Prng.int rng 24) ]
        else if t mod 2 = 0 then [ [| (2, 19); (14, 6); (21, 0) |].(t / 2 mod 3) ]
        else [])
  in
  let s =
    run_epochs ~params:(Lazy.force pinned_params) ~injections:(fun t -> inj.(t))
      [ (g, c, 200); (g2, c2, 300) ]
  in
  check_pinned "dynamic" s ~injected:171 ~dropped:0 ~delivered:42 ~sends:207 ~failed:0
    ~cost:49.94154478381548 ~peak:6 ~remaining:129

let test_quantized_pinned () =
  let g, c = pinned_instance () in
  let w = pinned_given_workload (g, c) in
  let check q ~delivered ~sends ~cost ~peak ~remaining ~control =
    let s, adverts =
      run_advertised ~cooldown:200 ~pad:c ~quantum:q ~graph:g
        ~params:(Lazy.force pinned_params) w
    in
    let name = Printf.sprintf "quantized q=%d" q in
    check_pinned name s ~injected:155 ~dropped:0 ~delivered ~sends ~failed:0 ~cost ~peak
      ~remaining;
    Alcotest.(check int) (name ^ ": control") control adverts;
    (* Continuous exchange: one message per node per step. *)
    Alcotest.(check int) (name ^ ": full exchange") 12_000 (s.Engine.steps * Graph.n g)
  in
  (* q = 0 reproduces the given+pad pin above. *)
  check 0 ~delivered:132 ~sends:296 ~cost:80.380614734523775 ~peak:7 ~remaining:23
    ~control:513;
  check 2 ~delivered:125 ~sends:320 ~cost:86.652369206273946 ~peak:10 ~remaining:30
    ~control:19;
  check 8 ~delivered:136 ~sends:390 ~cost:96.296966544796319 ~peak:9 ~remaining:19
    ~control:1

(* Nodes 0 and 1 inject into groups 0 and 1, of which they are not
   members, every 25th step. *)
let test_anycast_pinned () =
  let g, c = pinned_instance () in
  let groups = [| [| 3; 17 |]; [| 5; 11; 20 |] |] in
  let rng = Prng.create 82 in
  let inj =
    Array.init 300 (fun t ->
        if t mod 25 = 0 then [ (0, 0); (1, 1) ]
        else if t mod 3 = 0 then [ (Prng.int rng 24, Prng.int rng 2) ]
        else [])
  in
  let check name ?pad ~delivered ~sends ~cost ~remaining ~per_member:expected () =
    let s, absorbed =
      run_anycast ?pad ~graph:g ~params:(Lazy.force pinned_params) ~members:groups
        ~injections:(fun t -> if t < 300 then inj.(t) else [])
        ~steps:500 ()
    in
    Alcotest.(check int) (name ^ ": steps") 500 s.Engine.steps;
    Alcotest.(check int) (name ^ ": injected") 120 s.Engine.injected;
    Alcotest.(check int) (name ^ ": dropped") 0 s.Engine.dropped;
    Alcotest.(check int) (name ^ ": delivered") delivered s.Engine.delivered;
    Alcotest.(check int) (name ^ ": sends") sends s.Engine.sends;
    check_close ~eps:1e-12 (name ^ ": cost") cost s.Engine.total_cost;
    Alcotest.(check int) (name ^ ": remaining") remaining s.Engine.remaining;
    Alcotest.(check (list (pair int int))) (name ^ ": per member") expected
      (per_member absorbed)
  in
  check "anycast" ~delivered:73 ~sends:1374 ~cost:323.20134282713053 ~remaining:47
    ~per_member:[ (3, 18); (5, 26); (11, 2); (17, 20); (20, 7) ]
    ();
  check "anycast+pad" ~pad:c ~delivered:55 ~sends:97 ~cost:21.705590278964905 ~remaining:65
    ~per_member:[ (3, 13); (5, 15); (11, 1); (17, 19); (20, 7) ]
    ()

(* E15's fixed-path traffic, pinned exactly for every discipline: twelve
   shortest-path flows at rate 0.5 on 60 uniform points (seed 77, 1.5×
   the critical range) queue up on shared edges, so the disciplines part
   ways.  Costs are bit-exact; they differ in the last digits only through
   the order in which each discipline adds up the same hops. *)
let test_queueing_pinned () =
  let points = Adhoc_pointset.Generators.uniform (Prng.create 77) 60 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let w =
    Queueing.path_flows ~horizon:300 ~rng:(Prng.create 81) ~graph:g ~cost:Cost.length
      ~num_flows:12 ~rate:0.5
  in
  List.iter
    (fun (d, cost, max_queue, latency) ->
      let s = Queueing.run ~cooldown:300 ~graph:g ~cost:Cost.length d w in
      let name = Queueing.discipline_name d in
      Alcotest.(check int) (name ^ ": steps") 600 s.Queueing.steps;
      Alcotest.(check int) (name ^ ": injected") 1819 s.Queueing.injected;
      Alcotest.(check int) (name ^ ": delivered") 1819 s.Queueing.delivered;
      Alcotest.(check (float 0.)) (name ^ ": cost") cost s.Queueing.total_cost;
      Alcotest.(check int) (name ^ ": max queue") max_queue s.Queueing.max_queue;
      Alcotest.(check (float 0.)) (name ^ ": latency") latency s.Queueing.avg_latency)
    [
      (Queueing.Fifo, 1069.6945197858336, 17, 7.1583287520615722);
      (Queueing.Lifo, 1069.694519785832, 17, 7.1341396371632761);
      (Queueing.Furthest_to_go, 1069.6945197858349, 17, 7.2776250687190762);
      (Queueing.Nearest_to_go, 1069.694519785832, 17, 7.1445849367784495);
      (Queueing.Longest_in_system, 1069.6945197858336, 17, 7.1583287520615722);
    ]

(* ------------------------------------------------------------------ *)
(* Colour-class padding                                                *)

(* The per-candidate scan Pad.active replaced, kept as its oracle: the
   base as given, then the step's colour class in ascending edge-id
   order, keeping a class edge iff it is not in the base and no entry of
   its conflict row is. *)
let pad_oracle c ~colors ~k ~step base =
  let in_base e = List.mem e base in
  let extras =
    if k = 0 then []
    else
      List.filter
        (fun id ->
          colors.(id) = step mod k
          && (not (in_base id))
          && not (Array.exists in_base (conflict_rows c).(id)))
        (List.init (Array.length colors) Fun.id)
  in
  base @ extras

let test_pad_matches_scan =
  qtest "Pad.active = per-candidate conflict-row scan" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let points = points_of_seed ~min_n:2 ~max_n:60 seed in
      let range = 2. *. Udg.critical_range points in
      let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
      let c = Conflict.build (Model.make ~delta:(Prng.range rng 0. 1.)) ~points g in
      let m = Graph.num_edges g in
      let colors, k = Conflict.greedy_coloring c in
      let p = Engine.Pad.create c in
      (* Random bases may repeat edges, so [m] slots need not suffice. *)
      let into = Array.make ((2 * m) + 8) 0 in
      let random_edges count = List.init count (fun _ -> Prng.int rng (max m 1)) in
      (* Several calls on one [Pad.t], so stamps left by earlier steps are
         exercised too. *)
      List.for_all
        (fun _ ->
          let step = Prng.int rng 1000 in
          let cls = List.filter (fun e -> k > 0 && colors.(e) = step mod k) (List.init m Fun.id) in
          let mode = if m = 0 then 0 else Prng.int rng 4 in
          let base =
            match mode with
            | 0 -> []
            | 1 -> random_edges (1 + Prng.int rng 6)
            | 2 -> List.filter (fun _ -> Prng.bool rng) cls @ random_edges (Prng.int rng 3)
            | _ ->
                (* Blocks the whole class: a conflict neighbour of every
                   class edge, or the edge itself when it has none. *)
                List.map
                  (fun e ->
                    let row = (conflict_rows c).(e) in
                    if Array.length row = 0 then e else row.(Prng.int rng (Array.length row)))
                  cls
          in
          let count = Engine.Pad.active p ~step ~into base in
          Array.to_list (Array.sub into 0 count) = pad_oracle c ~colors ~k ~step base
          && (mode <> 3 || count = List.length base))
        (List.init 8 Fun.id))

(* With no sink attached the padding step must not allocate: 10 000 calls
   on an n = 1024 instance stay under 64 minor words, which is what the
   two Gcstat reads around the loop cost themselves. *)
let test_pad_allocation_free () =
  let rng = Prng.create 1024 in
  let points = Adhoc_pointset.Generators.uniform rng 1024 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  let m = Graph.num_edges g in
  let p = Engine.Pad.create c in
  let into = Array.make m 0 in
  let bases =
    Array.init 16 (fun i ->
        if i = 0 then []
        else Conflict.max_independent_greedy c (List.init 12 (fun _ -> Prng.int rng m)))
  in
  let before = Adhoc_obs.Gcstat.read () in
  for step = 0 to 9_999 do
    ignore (Engine.Pad.active p ~step ~into bases.(step land 15))
  done;
  let after = Adhoc_obs.Gcstat.read () in
  let words = (Adhoc_obs.Gcstat.delta ~before ~after).Adhoc_obs.Gcstat.minor_words in
  if words >= 64. then Alcotest.failf "10000 Pad.active calls allocated %.0f minor words" words

(* A steady-state step allocates nothing.  With no sink and no pool, an
   on_step hook reads Gcstat at two steps in the second half of the run,
   and the steps between the reads must allocate under one minor word
   each.  The instances have s1-flows' and s2-randmac's shape: 1024
   jittered-grid points, the ΘALG overlay and 16 or 32 certified flows
   within 3 hops.  What the bound leaves room for is the buffers' own
   growth: a row doubles when a node holds a new destination, which over
   steps 4000-7999 of these runs comes to 0.1-0.5 words per step, and
   the two reads cost a few dozen words.  A kernel that allocated per
   step (a boxed float, a closure, a list cell) would exceed it; the
   list-based kernel took 700-3000 words per step here. *)
let steady_words_per_step ~steps run =
  let from = steps / 2 and until = steps - 1 in
  let start = ref 0. and words = ref Float.nan in
  let on_step ~step ~delivered:_ ~buffered:_ =
    if step = from then start := (Adhoc_obs.Gcstat.read ()).Adhoc_obs.Gcstat.minor_words
    else if step = until then
      words :=
        ((Adhoc_obs.Gcstat.read ()).Adhoc_obs.Gcstat.minor_words -. !start)
        /. float_of_int (until - from)
  in
  let (_ : Engine.stats) = run on_step in
  !words

let steady_instance ~range_factor ~delta ~flows ~interference_free ~horizon =
  let rng = Prng.create 1 in
  let points = Adhoc_pointset.Generators.jittered_grid ~jitter:0.1 rng 1024 in
  let range = range_factor *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c = Conflict.build (Model.make ~delta) ~points g in
  let cost = Cost.energy ~kappa:2. in
  let config = { Workload.horizon; attempts = 2 * horizon; slack = 12; interference_free } in
  let w =
    Workload.flows
      ?conflict:(if interference_free then Some c else None)
      ~max_hops:3 config ~rng ~graph:g ~cost ~num_flows:flows
  in
  (g, c, cost, w, rng)

let test_steady_state_allocation () =
  let horizon = 8000 in
  let check name words =
    if not (words < 1.) then Alcotest.failf "%s: %.1f minor words per steady-state step" name words
  in
  let g, c, cost, w, _ =
    steady_instance ~range_factor:1.5 ~delta:0.5 ~flows:16 ~interference_free:true ~horizon
  in
  let o = w.Workload.opt in
  let params =
    Balancing.Derive.theorem_3_1 ~opt_buffer:o.Workload.max_buffer ~opt_avg_hops:o.Workload.avg_hops
      ~opt_avg_cost:(Float.max o.Workload.avg_cost 1e-9) ~delta:o.Workload.delta ~epsilon:0.5
  in
  check "Given ~pad"
    (steady_words_per_step ~steps:horizon (fun on_step ->
         Engine.run_mac_given ~on_step ~pad:c ~graph:g ~cost ~params w));
  check "Rounds"
    (steady_words_per_step ~steps:horizon (fun on_step ->
         Engine.run ~on_step ~who:"test" ~params ~heights:Engine.Live ~absorb:Engine.Destination
           ~injections:(fun t -> if t < horizon then w.Workload.injections.(t) else [])
           [
             {
               Engine.graph = g;
               cost;
               activation = Engine.Rounds (Some c);
               steps = horizon;
               epoch = None;
             };
           ]));
  (* The advertised-heights path queues changed cells and walks them each
     step; the list queue it replaced took 69-74 words per step here. *)
  List.iter
    (fun quantum ->
      check
        (Printf.sprintf "Quantized, q = %d" quantum)
        (steady_words_per_step ~steps:horizon (fun on_step ->
             fst (run_advertised ~on_step ~cost ~pad:c ~quantum ~graph:g ~params w))))
    [ 0; 2; 8 ];
  let g, c, cost, w, rng =
    steady_instance ~range_factor:1.1 ~delta:0.2 ~flows:32 ~interference_free:false ~horizon
  in
  let o = w.Workload.opt in
  let params =
    Balancing.Derive.theorem_3_3 ~opt_buffer:o.Workload.max_buffer ~opt_avg_hops:o.Workload.avg_hops
      ~opt_avg_cost:(Float.max o.Workload.avg_cost 1e-9) ~epsilon:0.5
  in
  let mac = Mac.random_interference ~rng c in
  check "Arbitrated, random MAC"
    (steady_words_per_step ~steps:horizon (fun on_step ->
         Engine.run_with_mac ~on_step ~collisions:c ~graph:g ~cost ~params ~mac w))

let () =
  Alcotest.run "routing"
    [
      ( "buffers",
        [
          case "inject cap" test_buffers_inject_cap;
          case "remove" test_buffers_remove;
          case "force add" test_buffers_force_add;
          test_buffers_nonzero_iteration;
          case "incremental max height" test_buffers_max_height_incremental;
          case "watcher" test_buffers_watcher;
          test_buffers_matrix_oracle;
          test_sparse_matrix_oracle;
        ] );
      ( "balancing",
        [
          case "argmax" test_balancing_picks_argmax;
          case "strict threshold" test_balancing_threshold_strict;
          case "best either" test_balancing_best_either;
          test_balancing_order_independent;
          test_balancing_matches_oracle;
          case "derive 3.1" test_derive_3_1;
          case "derive 3.3" test_derive_3_3;
          case "epsilon monotone" test_derive_epsilon_monotone;
          case "validation" test_params_validation;
        ] );
      ( "workload",
        [
          test_workload_counts;
          test_workload_activations_unique;
          test_workload_interference_free;
          test_workload_stats_sane;
          case "flows concentrate" test_workload_flows_concentrate;
          case "single destination" test_workload_single_destination;
        ] );
      ( "certificate",
        [
          test_certificate_accepts;
          test_certificate_rejects_mutations;
          test_certifier_matches_reference;
          case "s1-flows allocation" test_certify_allocation;
        ] );
      ( "engine",
        [
          test_engine_conservation;
          test_engine_mac_conservation;
          test_requests_match_scan;
          case "line delivers" test_engine_line_delivers;
          case "deterministic" test_engine_deterministic;
          case "ties apply in listed order" test_engine_ties_in_listed_order;
          case "phases share a node count" test_engine_phases_share_nodes;
          case "capacity drops" test_engine_capacity_drops;
          case "cost accounting" test_cost_accounting;
          case "pinned stats: given+pad" test_engine_pinned_given;
          case "pinned stats: csma" test_engine_pinned_csma;
          case "pinned stats: random mac" test_engine_pinned_random_mac;
          case "pinned stats: honeycomb" test_engine_pinned_honeycomb;
          case "pinned stats: greedy mac" test_engine_pinned_greedy;
          case "pinned stats: colour mac" test_engine_pinned_color;
          case "pinned stats: all mac + collisions" test_engine_pinned_all;
          case "pinned stats: dynamic" test_dynamic_pinned;
          case "pinned stats: quantized" test_quantized_pinned;
          case "pinned stats: anycast" test_anycast_pinned;
        ] );
      ( "padding",
        [
          test_pad_matches_scan;
          case "allocation-free steps" test_pad_allocation_free;
          case "steady-state steps allocate nothing" test_steady_state_allocation;
        ] );
      ( "tracked",
        [
          case "packet lifecycle" test_packet_lifecycle;
          case "latency metrics" test_journey_latency;
        ] );
      ( "dynamic",
        [
          test_dynamic_engine_static_equals_epochs;
          case "survives partition" test_dynamic_engine_survives_partition;
          case "injection validation" test_dynamic_injection_validation;
          test_dynamic_engine_conservation;
        ] );
      ( "edge-cases",
        [
          case "ratio edge cases" test_ratios_edge_cases;
          test_flows_max_hops_honored;
          case "bad configs rejected" test_workload_bad_configs;
        ] );
      ( "quantized",
        [
          test_quantized_zero_matches_engine;
          test_quantized_control_monotone;
          test_quantized_conservation;
          case "negative quantum" test_quantized_negative_quantum;
        ] );
      ( "parallel",
        [
          test_engine_pool_invariant;
          test_engine_mac_pool_invariant;
          test_dynamic_pool_invariant;
          test_quantized_pool_invariant;
          test_tracked_pool_invariant;
        ] );
      ( "dynamic-costs",
        [
          case "costs steer packets" test_dynamic_costs_steer_packets;
          case "hook defaults to static" test_dynamic_costs_default_matches_static;
        ] );
      ( "anycast",
        [
          case "line with two sinks" test_anycast_line;
          test_anycast_conservation;
          case "inject at member" test_anycast_injection_at_member;
          case "validation" test_anycast_validation;
          case "member not a node" test_anycast_member_not_a_node;
          case "short absorbed" test_anycast_short_absorbed;
          case "injection validation" test_anycast_injection_validation;
        ] );
      ("retention", [ case "single destination: one path per pair" test_certify_retention ]);
      ( "queueing",
        [
          test_queueing_all_delivered;
          test_queueing_injection_counts;
          case "single path" test_queueing_single_path;
          case "FTG priority" test_queueing_ftg_priority;
          case "names" test_queueing_names;
          case "pinned stats: E15 traffic" test_queueing_pinned;
        ] );
      ( "geo",
        [
          test_geo_greedy_route_valid;
          test_geo_face_delivers;
          case "route metrics" test_geo_route_metrics;
          case "local minimum recovery" test_geo_local_minimum;
          test_geo_success_rate_bounds;
        ] );
    ]
