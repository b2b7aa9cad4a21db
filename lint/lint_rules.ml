(* The rule set: a single Ast_iterator pass over one parsed compilation
   unit, emitting raw (pre-waiver) diagnostics.

   Rules and scopes (see DESIGN.md "Determinism policy"):

     ambient-rng    lib/   Random.* — ambient, unseeded global state
     wall-clock     lib/   Sys.time / Unix.gettimeofday / Unix.time / ...
     hashtbl-order  lib/   Hashtbl.iter / fold / to_seq* — unspecified order
     poly-compare   lib/   bare polymorphic compare (incl. Stdlib.compare)
     float-cmp      all    polymorphic = / <> / compare on float operands
     float-minmax   all    polymorphic min / max on float operands
     obs-purity     lib/   print_* / prerr_* / Printf.printf / Format.printf,
                           plus output-channel writes (open_out*, output_*,
                           Printf.fprintf) outside lib/obs/ — the obs layer
                           is the sanctioned serialisation path
     mli-required   lib/   .ml without a matching .mli (checked by the driver)
     catch-all      all    "with _ ->" swallowing every exception
     raw-domain     all    Domain.* anywhere but lib/util/pool.ml (the driver
                           exempts the pool module itself)
     raw-gc         all    Gc.* anywhere but lib/obs/ (the driver exempts the
                           obs layer, whose Gcstat is the sanctioned window)
     waiver-hygiene meta   unknown rule / missing reason / unused waiver
     parse-error    meta   the file does not parse

   Float operands are recognised syntactically: a float literal, a unary or
   binary float operator (+. etc.), a well-known float-returning stdlib
   function (sqrt, float_of_int, ...), or anything reached through a flagged
   module (Float, Stats, Cost) — the modules whose values have twice been
   mis-compared polymorphically in this repo's history. *)

open Parsetree

type scope = Lib | Tool

(* Which analysis layer detects a rule: the fast Parsetree pass, the
   resolved Typedtree/cmt pass, both (syntactic matches are caught twice
   and deduplicated; alias evasions only by the cmt pass), or the meta
   machinery around them. *)
type layer = L_parsetree | L_cmt | L_both | L_meta

let layer_name = function
  | L_parsetree -> "parsetree"
  | L_cmt -> "cmt"
  | L_both -> "both"
  | L_meta -> "meta"

type rule = { id : string; r_scope : scope option; r_layer : layer; doc : string }

let rules =
  [
    { id = "ambient-rng"; r_scope = Some Lib; r_layer = L_both; doc = "ambient Random.* in library code" };
    { id = "wall-clock"; r_scope = Some Lib; r_layer = L_both; doc = "wall-clock reads in library code" };
    { id = "hashtbl-order"; r_scope = Some Lib; r_layer = L_both; doc = "order-sensitive Hashtbl traversal" };
    { id = "poly-compare"; r_scope = Some Lib; r_layer = L_parsetree; doc = "bare polymorphic compare in library code" };
    { id = "float-cmp"; r_scope = None; r_layer = L_parsetree; doc = "polymorphic comparison on floats" };
    { id = "float-minmax"; r_scope = None; r_layer = L_parsetree; doc = "polymorphic min/max on floats" };
    { id = "obs-purity"; r_scope = Some Lib; r_layer = L_both; doc = "console or file-channel output in library code" };
    { id = "mli-required"; r_scope = Some Lib; r_layer = L_parsetree; doc = "library module without an .mli" };
    { id = "catch-all"; r_scope = None; r_layer = L_parsetree; doc = "try ... with _ -> swallows all exceptions" };
    { id = "raw-domain"; r_scope = None; r_layer = L_both; doc = "raw Domain.* outside the pool module" };
    { id = "raw-gc"; r_scope = None; r_layer = L_both; doc = "raw Gc.* outside the obs layer" };
    { id = "par-safety"; r_scope = Some Lib; r_layer = L_cmt; doc = "shared-state write or io in a Pool region body" };
    { id = "waiver-hygiene"; r_scope = None; r_layer = L_meta; doc = "malformed, unknown or unused waiver" };
    { id = "parse-error"; r_scope = None; r_layer = L_meta; doc = "file does not parse" };
  ]

let known_rule id = List.exists (fun r -> r.id = id) rules

(* ------------------------------------------------------------------ *)
(* Path policy, shared by the driver (Parsetree layer) and the cmt
   layer: which files count as library code and which are the sanctioned
   exemptions. *)

let scope_of_path path =
  let segs = String.split_on_char '/' path in
  if List.mem "lib" segs then Lib else Tool

(* The one compilation unit allowed to touch Domain.* (see raw-domain):
   the domain pool that every kernel threads instead. *)
let domain_exempt_path path =
  let norm = String.concat "/" (String.split_on_char '\\' path) in
  let suffix = "lib/util/pool.ml" in
  let n = String.length norm and k = String.length suffix in
  n >= k && String.sub norm (n - k) k = suffix

(* The observability layer is allowed to read Gc.* (see raw-gc) and to
   write output channels (see obs-purity): its Gcstat module is the
   sanctioned GC window, and its writers (Event, Live, Chrome_trace) the
   sanctioned file-serialisation path. *)
let obs_layer_path path =
  let norm = String.concat "/" (String.split_on_char '\\' path) in
  let infix = "lib/obs/" in
  let n = String.length norm and k = String.length infix in
  let rec scan i = i + k <= n && (String.sub norm i k = infix || scan (i + 1)) in
  scan 0

type ctx = {
  scope : scope;
  float_flagged : bool;  (* file belongs to a float-heavy flagged module *)
  domain_exempt : bool;  (* the sanctioned Domain wrapper (lib/util/pool.ml) *)
  gc_exempt : bool;  (* the sanctioned Gc window (anything under lib/obs/) *)
  obs_exempt : bool;  (* the sanctioned channel writers (anything under lib/obs/) *)
  emit : Location.t -> string -> string -> unit;  (* loc, rule, message *)
}

(* ------------------------------------------------------------------ *)
(* Longident helpers.                                                  *)

let flatten lid = try Longident.flatten lid with _ -> []  (* lint: allow catch-all — Longident.flatten only raises on Lapply, which cannot carry banned idents *)

(* Normalise an identifier path: explicit Stdlib qualification is the same
   identifier. *)
let norm = function "Stdlib" :: rest -> rest | p -> p

let ident_path e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (norm (flatten txt)) | _ -> None

let float_modules = [ "Float"; "Stats"; "Cost" ]

let float_fns =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "cos"; "sin"; "tan"; "acos"; "asin";
    "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float"; "mod_float";
    "float_of_int"; "float_of_string"; "float";
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let path_in_float_module p =
  (* Any module segment of the path names a flagged module: Float.pi,
     Stats.mean, Adhoc_util.Stats.mean, Adhoc_graph.Cost.energy, ... *)
  match List.rev p with
  | [] | [ _ ] -> false
  | _ :: modules -> List.exists (fun m -> List.mem m float_modules) modules

let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> path_in_float_module (norm (flatten txt))
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some [ op ] when List.mem op float_ops -> true
      | Some [ fn ] when List.mem fn float_fns -> true
      | Some p when path_in_float_module p -> true
      | Some [ op ] when List.mem op [ "+"; "-"; "*"; "/" ] ->
          (* Parenthesised sub-expressions stay transparent. *)
          List.exists (fun (_, a) -> floatish a) args
      | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Identifier ban tables.                                              *)

let hashtbl_order_fns = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let wall_clock =
  [
    [ "Sys"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "gmtime" ];
  ]

let print_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes";
  ]

let printf_like =
  [ [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Format"; "printf" ]; [ "Format"; "eprintf" ] ]

(* Output-channel writes: allowed only under lib/obs/ (ctx.obs_exempt),
   where Event / Live / Chrome_trace own all file serialisation.
   [close_out] stays legal everywhere — closing a channel someone handed
   you is not producing output. *)
let channel_idents =
  [
    "open_out"; "open_out_bin"; "open_out_gen"; "output_string"; "output_char"; "output_bytes";
    "output_byte"; "output_substring";
  ]

let check_ident ctx loc p =
  (match p with
  | "Domain" :: _ when not ctx.domain_exempt ->
      ctx.emit loc "raw-domain"
        "raw Domain.* outside Adhoc_util.Pool; thread a Pool.t through the kernel instead"
  | _ -> ());
  (match p with
  | "Gc" :: _ when not ctx.gc_exempt ->
      ctx.emit loc "raw-gc"
        "raw Gc.* outside Adhoc_obs; read GC telemetry through Adhoc_obs.Gcstat"
  | _ -> ());
  if ctx.scope = Lib then begin
    (match p with
    | [ "compare" ] ->
        (* Catches both the applied form (compare a b, List.sort compare)
           and compare smuggled into a functor (let compare = compare);
           Stdlib qualification is normalised away.  Monomorphic
           comparators (Int.compare, ...) have a module path and pass. *)
        ctx.emit loc "poly-compare"
          "bare polymorphic compare in library code; use a monomorphic comparator (Int.compare, Float.compare, ...)"
    | _ -> ());
    (match p with
    | "Random" :: _ ->
        ctx.emit loc "ambient-rng"
          "ambient PRNG in library code; thread an explicit Adhoc_util.Prng.t instead"
    | _ -> ());
    if List.mem p wall_clock then
      ctx.emit loc "wall-clock"
        (Printf.sprintf "wall-clock read %s in library code breaks reproducibility; take time as input or go through Adhoc_obs.Span"
           (String.concat "." p));
    (match p with
    | [ "Hashtbl"; fn ] when List.mem fn hashtbl_order_fns ->
        ctx.emit loc "hashtbl-order"
          (Printf.sprintf
             "Hashtbl.%s traverses in unspecified order; iterate sorted keys (Adhoc_util.Det) or justify order-independence in a waiver"
             fn)
    | _ -> ());
    (match p with
    | [ id ] when List.mem id print_idents ->
        ctx.emit loc "obs-purity"
          (Printf.sprintf "%s in library code; return data or emit through an Adhoc_obs sink" id)
    | _ ->
        if List.mem p printf_like then
          ctx.emit loc "obs-purity"
            (Printf.sprintf "%s in library code; return data or emit through an Adhoc_obs sink"
               (String.concat "." p)));
    if not ctx.obs_exempt then
      match p with
      | [ id ] when List.mem id channel_idents ->
          ctx.emit loc "obs-purity"
            (Printf.sprintf
               "%s in library code; confine file serialisation to the obs layer (lib/obs/)" id)
      | [ "Printf"; "fprintf" ] ->
          ctx.emit loc "obs-purity"
            "Printf.fprintf in library code; confine file serialisation to the obs layer (lib/obs/)"
      | _ -> ()
  end

let cmp_name p = match p with [ n ] -> Some n | _ -> None

let check_apply ctx loc f args =
  (match ident_path f with
  | Some p -> (
      match cmp_name p with
      | Some (("=" | "<>" | "compare") as op) when List.length args = 2 ->
          if List.exists (fun (_, a) -> floatish a) args then
            ctx.emit loc "float-cmp"
              (Printf.sprintf
                 "polymorphic %s on a float operand; use Float.%s (nan-aware, monomorphic)" op
                 (if op = "compare" then "compare" else "equal"))
      | Some (("min" | "max") as op) when List.length args = 2 ->
          if List.exists (fun (_, a) -> floatish a) args then
            ctx.emit loc "float-minmax"
              (Printf.sprintf "polymorphic %s on a float operand; use Float.%s" op op)
      | _ -> ())
  | None -> ());
  (* Bare polymorphic compare passed as a value (Array.sort compare ...)
     inside a float-flagged module: the exact bug class fixed twice in
     Stats.  Elsewhere the element type is usually not float. *)
  if ctx.float_flagged then
    List.iter
      (fun (_, a) ->
        match ident_path a with
        | Some [ "compare" ] ->
            ctx.emit a.pexp_loc "float-cmp"
              "bare polymorphic compare in a float-flagged module; use Float.compare"
        | _ -> ())
      args

let check_try ctx cases =
  List.iter
    (fun c ->
      match (c.pc_lhs.ppat_desc, c.pc_guard) with
      | Ppat_any, None ->
          ctx.emit c.pc_lhs.ppat_loc "catch-all"
            "catch-all handler swallows every exception (including Out_of_memory and asserts); match the exceptions you mean"
      | _ -> ())
    cases

let iterator ctx =
  let open Ast_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ctx loc (norm (flatten txt))
    | Pexp_apply (f, args) -> check_apply ctx e.pexp_loc f args
    | Pexp_try (_, cases) -> check_try ctx cases
    | _ -> ());
    default_iterator.expr it e
  in
  { default_iterator with expr }

(* ------------------------------------------------------------------ *)

let run_structure ctx str =
  let it = iterator ctx in
  it.Ast_iterator.structure it str

let run_signature ctx sg =
  let it = iterator ctx in
  it.Ast_iterator.signature it sg
