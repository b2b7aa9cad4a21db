(* Fixed-size domain pool with deterministic chunking.

   Concurrency protocol: each worker owns a mailbox (mutex + condition +
   command cell) and blocks until the owner posts a command.  A parallel
   region splits [0, n) into [min jobs n] contiguous chunks — chunk [i] is
   [[i*n/k, (i+1)*n/k)] — posts chunks 1.. to the workers, runs chunk 0 on
   the calling domain, then blocks on a countdown until every chunk
   finished.  Only one region runs at a time ([busy]); a nested or
   foreign-domain call falls back to running the whole range inline, which
   is semantically identical because chunk bodies must be index-pure.

   Determinism: chunk boundaries are a function of (n, jobs) only, every
   index is processed exactly once, and nothing here reorders caller
   computations — each index's work is evaluated by exactly the same code
   regardless of which domain runs it.  Reductions (see {!map_reduce})
   happen on the calling domain in ascending index order, so results are
   bit-identical to the sequential path for any [jobs]. *)

(* This module is the sanctioned Domain wrapper — the raw-domain lint rule
   exempts exactly this path and bans Domain.* everywhere else. *)

type hooks = {
  region_enter : label:string -> items:int -> chunks:int -> unit;
  region_leave : label:string -> unit;
  chunk_enter : label:string -> slot:int -> lo:int -> hi:int -> unit;
  chunk_leave : label:string -> slot:int -> lo:int -> hi:int -> unit;
}

type cmd = Idle | Run of (unit -> unit) | Quit

type worker = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable w_cmd : cmd;
  mutable w_domain : unit Domain.t option;
}

type t = {
  jobs : int;
  workers : worker array;  (* length [jobs - 1] *)
  owner : Domain.id;
  d_mutex : Mutex.t;  (* guards [pending], [busy] *)
  d_cond : Condition.t;  (* signalled when [pending] hits zero *)
  mutable pending : int;
  mutable busy : bool;
  mutable alive : bool;
  mutable hooks : hooks option;
}

(* OCaml 5.1 supports at most 128 live domains; stay well under it so
   several pools (tests) can coexist. *)
let max_jobs = 64

let default_jobs () = max 1 (min max_jobs (Domain.recommended_domain_count ()))

let rec worker_loop w =
  Mutex.lock w.w_mutex;
  while w.w_cmd = Idle do
    Condition.wait w.w_cond w.w_mutex
  done;
  let cmd = w.w_cmd in
  w.w_cmd <- Idle;
  Mutex.unlock w.w_mutex;
  match cmd with
  | Quit -> ()
  | Idle -> assert false
  | Run f ->
      f ();
      worker_loop w

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j -> max 1 (min max_jobs j)
  in
  let workers =
    Array.init (jobs - 1) (fun _ ->
        {
          w_mutex = Mutex.create ();
          w_cond = Condition.create ();
          w_cmd = Idle;
          w_domain = None;
        })
  in
  let t =
    {
      jobs;
      workers;
      owner = Domain.self ();
      d_mutex = Mutex.create ();
      d_cond = Condition.create ();
      pending = 0;
      busy = false;
      alive = true;
      hooks = None;
    }
  in
  Array.iter (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w))) workers;
  t

let jobs t = t.jobs

let set_hooks t hooks = t.hooks <- hooks

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.w_mutex;
        w.w_cmd <- Quit;
        Condition.signal w.w_cond;
        Mutex.unlock w.w_mutex)
      t.workers;
    Array.iter (fun w -> Option.iter Domain.join w.w_domain) t.workers
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Try to become the (single) active region.  Fails for nested calls, for
   calls from a worker domain and after shutdown — all of which then run
   the range inline on the calling domain. *)
let try_acquire t =
  Mutex.lock t.d_mutex;
  let ok = t.alive && not t.busy in
  if ok then t.busy <- true;
  Mutex.unlock t.d_mutex;
  ok

let release t =
  Mutex.lock t.d_mutex;
  t.busy <- false;
  Mutex.unlock t.d_mutex

let post w f =
  Mutex.lock w.w_mutex;
  w.w_cmd <- Run f;
  Condition.signal w.w_cond;
  Mutex.unlock w.w_mutex

(* Wrap one chunk in its instrumentation pair.  Chunk hooks fire on the
   domain that executes the chunk (that is their point: per-domain
   timelines), so they must only touch domain-local state — see
   Adhoc_obs.Domprof's single-writer lanes.  [fire] is the hook snapshot
   taken at region entry, so a region's chunk events always pair with its
   region events even if hooks are swapped mid-flight. *)
let run_slot fire ~label ~chunk slot lo hi =
  match fire with
  | None -> chunk lo hi
  | Some h ->
      h.chunk_enter ~label ~slot ~lo ~hi;
      Fun.protect
        ~finally:(fun () -> h.chunk_leave ~label ~slot ~lo ~hi)
        (fun () -> chunk lo hi)

(* Run [chunk lo hi] over a partition of [0, n) into [k] contiguous chunks,
   chunk [i] on worker [i - 1] and chunk 0 on the calling domain.  Chunk
   bodies iterate ascending and abort at the first raise, so the exception
   re-raised here — first failing chunk in index order — is the exception
   of the lowest failing index, independent of [jobs]. *)
let run_chunked t ~fire ~label ~n ~chunk =
  let k = min t.jobs n in
  let exns = Array.make k None in
  Mutex.lock t.d_mutex;
  t.pending <- k - 1;
  Mutex.unlock t.d_mutex;
  for i = 1 to k - 1 do
    post t.workers.(i - 1) (fun () ->
        (try run_slot fire ~label ~chunk i (i * n / k) ((i + 1) * n / k)
         with e -> exns.(i) <- Some e);
        Mutex.lock t.d_mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.d_cond;
        Mutex.unlock t.d_mutex)
  done;
  (try run_slot fire ~label ~chunk 0 0 (n / k) with e -> exns.(0) <- Some e);
  Mutex.lock t.d_mutex;
  while t.pending > 0 do
    Condition.wait t.d_cond t.d_mutex
  done;
  Mutex.unlock t.d_mutex;
  Array.iter (function Some e -> raise e | None -> ()) exns

let run_region t ~label ~n ~chunk =
  let acquired = try_acquire t in
  (* Instrumentation fires only for top-level regions on the owning
     domain — never for nested fallbacks — so hook/span/counter totals
     are identical for every [jobs], including 1.  Chunk counts are the
     one jobs-dependent quantity, by design: a region splits into
     [min jobs n] chunks when it actually parallelizes and 1 otherwise,
     and the slot-0 chunk pair fires on the single-chunk path too, so a
     jobs = 1 pool still yields a complete timeline. *)
  let fire = if acquired && Domain.self () = t.owner then t.hooks else None in
  let k = if (not acquired) || t.jobs = 1 || n = 1 then 1 else min t.jobs n in
  (match fire with Some h -> h.region_enter ~label ~items:n ~chunks:k | None -> ());
  Fun.protect
    ~finally:(fun () ->
      (match fire with Some h -> h.region_leave ~label | None -> ());
      if acquired then release t)
    (fun () ->
      if k = 1 then run_slot fire ~label ~chunk 0 0 n
      else run_chunked t ~fire ~label ~n ~chunk)

(* A jobs-1 pool with no hooks runs the chunk inline: with no worker
   there is nothing to lock against, nothing to report, and a raise
   leaves no state to restore.  With hooks it takes the region path, so
   region and item counts and timelines are the same for every [jobs]. *)
let run t ~label ~n ~chunk =
  if n > 0 then
    match t.hooks with
    | None when t.jobs = 1 -> chunk 0 n
    | _ -> run_region t ~label ~n ~chunk

let parallel_for t ?(label = "for") n body =
  run t ~label ~n ~chunk:(fun lo hi ->
      for i = lo to hi - 1 do
        body i
      done)

let parallel_init t ?(label = "init") n f =
  if n <= 0 then [||]
  else begin
    (* Index 0 seeds the array on the calling domain; the region covers the
       rest.  Same evaluation per index either way. *)
    let a = Array.make n (f 0) in
    run t ~label ~n:(n - 1) ~chunk:(fun lo hi ->
        for i = lo to hi - 1 do
          a.(i + 1) <- f (i + 1)
        done);
    a
  end

let map_reduce t ?(label = "map-reduce") ~n ~map ~init ~fold () =
  if n <= 0 then init
  else Array.fold_left fold init (parallel_init t ~label n map)

(* Option-threading conveniences: every kernel takes [?pool] and the
   [None] path must stay exactly the code that existed before the pool
   did, so the sequential fallbacks below spell it out. *)

let opt_for pool ?label n body =
  match pool with
  | Some t -> parallel_for t ?label n body
  | None ->
      for i = 0 to n - 1 do
        body i
      done

let opt_init pool ?label n f =
  match pool with Some t -> parallel_init t ?label n f | None -> Array.init n f
