type outcome = Moved | Delivered

type t =
  | Inject of { step : int; src : int; dst : int; admitted : bool }
  | Send of {
      step : int;
      edge : int;
      src : int;
      dst : int;
      dest : int;
      cost : float;
      outcome : outcome;
    }
  | Collide of { step : int; edge : int; src : int; dst : int; dest : int; cost : float }
  | Deliver of { step : int; dst : int; self : bool }
  | Epoch_change of { step : int; epoch : int }
  | Height_advert of { step : int; node : int }

let step = function
  | Inject { step; _ }
  | Send { step; _ }
  | Collide { step; _ }
  | Deliver { step; _ }
  | Epoch_change { step; _ }
  | Height_advert { step; _ } -> step

(* Flat encoding: 7 ints per event (tag, step, a..e) plus one float (the
   cost; 0 for costless events).  Tags: 0 Inject (a=src b=dst c=admitted),
   1 Send (a=edge b=src c=dst d=dest e=outcome), 2 Collide (a=edge b=src
   c=dst d=dest), 3 Deliver (a=dst b=self), 4 Epoch_change (a=epoch),
   5 Height_advert (a=node). *)
let stride = 7

type log = {
  mutable ints : int array;
  mutable costs : float array;
  mutable len : int;  (* events recorded *)
  mutable observers : (int -> t -> unit) list;  (* registration order *)
  mutable max_step : int;  (* largest step recorded; min_int when empty *)
}

let create () =
  {
    ints = Array.make (stride * 1024) 0;
    costs = Array.make 1024 0.;
    len = 0;
    observers = [];
    max_step = min_int;
  }

let length log = log.len

let decode log i =
  let o = stride * i in
  let v = log.ints in
  let step = v.(o + 1) and a = v.(o + 2) and b = v.(o + 3) in
  match v.(o) with
  | 0 -> Inject { step; src = a; dst = b; admitted = v.(o + 4) = 1 }
  | 1 ->
      Send
        {
          step;
          edge = a;
          src = b;
          dst = v.(o + 4);
          dest = v.(o + 5);
          cost = log.costs.(i);
          outcome = (if v.(o + 6) = 1 then Delivered else Moved);
        }
  | 2 ->
      Collide
        { step; edge = a; src = b; dst = v.(o + 4); dest = v.(o + 5); cost = log.costs.(i) }
  | 3 -> Deliver { step; dst = a; self = b = 1 }
  | 4 -> Epoch_change { step; epoch = a }
  | _ -> Height_advert { step; node = a }

let get log i =
  if i < 0 || i >= log.len then invalid_arg "Event.get: index out of bounds";
  decode log i

let add_observer log f = log.observers <- log.observers @ [ f ]

let last_step log = log.max_step

let grow log =
  let cap = Array.length log.costs in
  let ints = Array.make (2 * stride * cap) 0 in
  Array.blit log.ints 0 ints 0 (stride * cap);
  log.ints <- ints;
  let costs = Array.make (2 * cap) 0. in
  Array.blit log.costs 0 costs 0 cap;
  log.costs <- costs

(* Reserve one slot; returns the int-array offset to fill.  The observer,
   when any, sees the event only after [commit]. *)
let reserve log =
  if log.len = Array.length log.costs then grow log;
  stride * log.len

let commit log =
  let i = log.len in
  log.len <- i + 1;
  match log.observers with
  | [] -> ()
  | [ f ] -> f i (decode log i)
  | fs ->
      let e = decode log i in
      List.iter (fun f -> f i e) fs

(* Raw write: no step check (record uses it to build deliberately corrupt
   logs); max_step still tracks the largest step seen. *)
let emit6 log tag step a b c d e cost =
  let o = reserve log in
  let v = log.ints in
  v.(o) <- tag;
  v.(o + 1) <- step;
  v.(o + 2) <- a;
  v.(o + 3) <- b;
  v.(o + 4) <- c;
  v.(o + 5) <- d;
  v.(o + 6) <- e;
  log.costs.(log.len) <- cost;
  if step > log.max_step then log.max_step <- step;
  commit log

(* The emitters' monotonicity contract: online consumers (Live, the
   Invariants checker) fold over the stream assuming steps never
   decrease, so a regression is an engine bug worth failing loudly on. *)
let check_step log step name =
  if log.max_step > min_int && step < log.max_step then
    invalid_arg
      (Printf.sprintf
         "Event.%s: step %d after step %d; emitters require non-decreasing steps (see last_step)"
         name step log.max_step)

let inject log ~step ~src ~dst ~admitted =
  check_step log step "inject";
  emit6 log 0 step src dst (if admitted then 1 else 0) 0 0 0.

let send log ~step ~edge ~src ~dst ~dest ~cost ~outcome =
  check_step log step "send";
  emit6 log 1 step edge src dst dest (match outcome with Delivered -> 1 | Moved -> 0) cost

let collide log ~step ~edge ~src ~dst ~dest ~cost =
  check_step log step "collide";
  emit6 log 2 step edge src dst dest 0 cost

let deliver log ~step ~dst ~self =
  check_step log step "deliver";
  emit6 log 3 step dst (if self then 1 else 0) 0 0 0 0.

let epoch_change log ~step ~epoch =
  check_step log step "epoch_change";
  emit6 log 4 step epoch 0 0 0 0 0.

let height_advert log ~step ~node =
  check_step log step "height_advert";
  emit6 log 5 step node 0 0 0 0 0.

let record log = function
  | Inject { step; src; dst; admitted } ->
      emit6 log 0 step src dst (if admitted then 1 else 0) 0 0 0.
  | Send { step; edge; src; dst; dest; cost; outcome } ->
      emit6 log 1 step edge src dst dest (match outcome with Delivered -> 1 | Moved -> 0) cost
  | Collide { step; edge; src; dst; dest; cost } -> emit6 log 2 step edge src dst dest 0 cost
  | Deliver { step; dst; self } -> emit6 log 3 step dst (if self then 1 else 0) 0 0 0 0.
  | Epoch_change { step; epoch } -> emit6 log 4 step epoch 0 0 0 0 0.
  | Height_advert { step; node } -> emit6 log 5 step node 0 0 0 0 0.

let iter log f =
  for i = 0 to log.len - 1 do
    f i (decode log i)
  done

let to_array log = Array.init log.len (decode log)

(* ------------------------------------------------------------------ *)
(* JSONL (schema adhoc-events/1)                                       *)

let schema = "adhoc-events/1"

(* %.17g round-trips every finite double exactly, which is what lets the
   offline replay reproduce in-memory statistics bit-for-bit. *)
let cost_field f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let bool_field b = if b then "true" else "false"

let write_event oc = function
  | Inject { step; src; dst; admitted } ->
      Printf.fprintf oc "{\"ev\":\"inject\",\"step\":%d,\"src\":%d,\"dst\":%d,\"admitted\":%s}\n"
        step src dst (bool_field admitted)
  | Send { step; edge; src; dst; dest; cost; outcome } ->
      Printf.fprintf oc
        "{\"ev\":\"send\",\"step\":%d,\"edge\":%d,\"src\":%d,\"dst\":%d,\"dest\":%d,\"cost\":%s,\"outcome\":\"%s\"}\n"
        step edge src dst dest (cost_field cost)
        (match outcome with Moved -> "moved" | Delivered -> "delivered")
  | Collide { step; edge; src; dst; dest; cost } ->
      Printf.fprintf oc
        "{\"ev\":\"collide\",\"step\":%d,\"edge\":%d,\"src\":%d,\"dst\":%d,\"dest\":%d,\"cost\":%s}\n"
        step edge src dst dest (cost_field cost)
  | Deliver { step; dst; self } ->
      Printf.fprintf oc "{\"ev\":\"deliver\",\"step\":%d,\"dst\":%d,\"self\":%s}\n" step dst
        (bool_field self)
  | Epoch_change { step; epoch } ->
      Printf.fprintf oc "{\"ev\":\"epoch\",\"step\":%d,\"epoch\":%d}\n" step epoch
  | Height_advert { step; node } ->
      Printf.fprintf oc "{\"ev\":\"advert\",\"step\":%d,\"node\":%d}\n" step node

let write_jsonl log oc =
  Printf.fprintf oc "{\"schema\":%S}\n" schema;
  iter log (fun _ e -> write_event oc e)

let save_jsonl log file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl log oc)

(* ------------------------------------------------------------------ *)
(* Parsing.  Each line must be exactly one JSON object whose members are
   scalars (the format has no nesting), read by the shared strict reader:
   any JSON whitespace between tokens, any member order, no repeated
   member name.  Strings arrive undecoded; every string of the format is
   a plain ASCII word, so an escaped word matches no key or kind. *)

module Json = Adhoc_util.Json

exception Parse of string

(* The members of a one-object line. *)
let flat_object line =
  match Json.of_string line with
  | Error msg -> raise (Parse msg)
  | Ok (Json.Obj members) ->
      List.iter
        (function
          | key, (Json.Arr _ | Json.Obj _) ->
              raise (Parse (Printf.sprintf "member %S is not a string, number, boolean or null" key))
          | _ -> ())
        members;
      members
  | Ok _ -> raise (Parse "not a JSON object")

(* Field [key] of a parsed line, converted by [conv]; [what] names the
   expected kind in the error. *)
let field o key what conv =
  match List.assoc_opt key o with
  | None -> raise (Parse (Printf.sprintf "missing field %S" key))
  | Some v -> (
      match conv v with
      | Some x -> x
      | None -> raise (Parse (Printf.sprintf "field %S is not %s" key what)))

let int_field o key =
  field o key "an integer" (function Json.Num s -> int_of_string_opt s | _ -> None)

let float_field o key =
  field o key "a number" (function Json.Num s -> float_of_string_opt s | _ -> None)

let bool_field_of o key = field o key "a boolean" (function Json.Bool b -> Some b | _ -> None)

let string_field o key = field o key "a string" (function Json.Str s -> Some s | _ -> None)

let parse_event line =
  let o = flat_object line in
  match string_field o "ev" with
  | "inject" ->
      Inject
        {
          step = int_field o "step";
          src = int_field o "src";
          dst = int_field o "dst";
          admitted = bool_field_of o "admitted";
        }
  | "send" ->
      Send
        {
          step = int_field o "step";
          edge = int_field o "edge";
          src = int_field o "src";
          dst = int_field o "dst";
          dest = int_field o "dest";
          cost = float_field o "cost";
          outcome =
            (match string_field o "outcome" with
            | "moved" -> Moved
            | "delivered" -> Delivered
            | o -> raise (Parse (Printf.sprintf "unknown outcome %S" o)));
        }
  | "collide" ->
      Collide
        {
          step = int_field o "step";
          edge = int_field o "edge";
          src = int_field o "src";
          dst = int_field o "dst";
          dest = int_field o "dest";
          cost = float_field o "cost";
        }
  | "deliver" ->
      Deliver
        {
          step = int_field o "step";
          dst = int_field o "dst";
          self = bool_field_of o "self";
        }
  | "epoch" -> Epoch_change { step = int_field o "step"; epoch = int_field o "epoch" }
  | "advert" -> Height_advert { step = int_field o "step"; node = int_field o "node" }
  | ev -> raise (Parse (Printf.sprintf "unknown event kind %S" ev))

let load_jsonl file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let header = try Some (input_line ic) with End_of_file -> None in
          match header with
          | None -> Error (file ^ ": empty file")
          | Some h -> (
              match string_field (flat_object h) "schema" with
              | exception Parse _ -> Error (file ^ ":1: missing \"schema\" header line")
              | s when s <> schema ->
                  Error
                    (Printf.sprintf "%s:1: schema %S, expected %S" file s schema)
              | _ -> (
                  let events = ref [] in
                  let line_no = ref 1 in
                  (* The emitters' step contract, which every step-keyed
                     reader relies on: no step is negative or below the
                     previous line's. *)
                  let last = ref 0 in
                  try
                    (try
                       while true do
                         let line = input_line ic in
                         incr line_no;
                         if line <> "" then begin
                           let e = parse_event line in
                           let s = step e in
                           if s < !last then
                             raise
                               (Parse
                                  (if s < 0 then Printf.sprintf "negative step %d" s
                                   else Printf.sprintf "step %d after step %d" s !last));
                           last := s;
                           events := e :: !events
                         end
                       done
                     with End_of_file -> ());
                    Ok (Array.of_list (List.rev !events))
                  with Parse msg ->
                    Error (Printf.sprintf "%s:%d: %s" file !line_no msg))))
