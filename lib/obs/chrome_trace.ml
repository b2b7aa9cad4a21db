(* Chrome/Perfetto trace-event export (catapult JSON array format).

   Writes a {"traceEvents": [...]} document that chrome://tracing and
   https://ui.perfetto.dev load directly: one "M" (metadata) event naming
   the process and each used lane, then one "X" (complete) event per
   Domprof entry — tid = pool slot, ts/dur in microseconds relative to the
   recorder's epoch.  Event order follows Domprof.entries (the
   deterministic slot-major merge), so two runs of the same workload
   produce structurally identical documents; only ts/dur differ.

   Printf formats for the five fixed shapes; strings go through the
   shared JSON escape. *)

let cat = function Domprof.Region -> "region" | Domprof.Chunk -> "chunk" | Domprof.Scope -> "span"

let add_event buf ~first s =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf "\n  ";
  Buffer.add_string buf s

let to_buffer ?(process_name = "adhoc") buf dp =
  let es = Domprof.entries dp in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  add_event buf ~first
    (Printf.sprintf
       "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"%s\"}}"
       (Adhoc_util.Json.escape process_name));
  (* Name each lane that recorded anything, so the viewer's rows read
     "slot 0 (caller)" / "slot i (worker i-1)" instead of bare tids. *)
  let used = Array.make (Domprof.slots dp) false in
  Array.iter (fun (e : Domprof.entry) -> used.(e.Domprof.slot) <- true) es;
  Array.iteri
    (fun slot u ->
      if u then
        let name =
          if slot = 0 then "slot 0 (caller)" else Printf.sprintf "slot %d (worker %d)" slot (slot - 1)
        in
        add_event buf ~first
          (Printf.sprintf
             "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", \"args\": {\"name\": \"%s\"}}"
             slot name))
    used;
  Array.iter
    (fun (e : Domprof.entry) ->
      let ts = 1e6 *. e.Domprof.t0 and dur = 1e6 *. (e.Domprof.t1 -. e.Domprof.t0) in
      let args =
        match e.Domprof.kind with
        | Domprof.Scope -> ""
        | Domprof.Region | Domprof.Chunk ->
            Printf.sprintf ", \"args\": {\"lo\": %d, \"hi\": %d, \"items\": %d}" e.Domprof.lo
              e.Domprof.hi
              (e.Domprof.hi - e.Domprof.lo)
      in
      add_event buf ~first
        (Printf.sprintf
           "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", \"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f%s}"
           e.Domprof.slot (Adhoc_util.Json.escape e.Domprof.label) (cat e.Domprof.kind) ts (Float.max 0. dur) args))
    es;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n"

let to_string ?process_name dp =
  let buf = Buffer.create 4096 in
  to_buffer ?process_name buf dp;
  Buffer.contents buf

let save ?process_name dp file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string ?process_name dp))
