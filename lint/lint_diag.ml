(* Diagnostic types, waiver parsing and report rendering for adhoc_lint.

   A waiver is a single-line comment — opener, marker and rule on one
   line — whose body reads

     lint: allow <rule> — <reason>

   ("--", "-" or ":" are accepted in place of the em-dash).  It suppresses
   diagnostics of that rule on its own line and on the following line, so it
   can sit at the end of the offending line or alone just above it.  The
   reason is mandatory: a waiver without one is itself a diagnostic
   (waiver-hygiene), as is a waiver that suppresses nothing — waivers must
   not outlive the code they excuse. *)

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

(* Which analysis layer produced a diagnostic.  The same ban can fire in
   both layers at the same position (a syntactic [Random.int] is also a
   resolved one); [dedup] keeps the Parsetree copy. *)
type layer = Parsetree | Cmt

let diag_layer_name = function Parsetree -> "parsetree" | Cmt -> "cmt"

type diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  layer : layer;
  severity : severity;
  message : string;
}

type waiver = {
  w_file : string;
  w_line : int;
  w_rule : string;
  w_reason : string;  (* "" when the comment carries no reason *)
  mutable w_used : bool;
}

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else begin
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else begin
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule
    end
  end

let to_string d =
  Printf.sprintf "%s:%d:%d [%s] %s" d.file d.line d.col d.rule d.message

(* Sort and collapse same-position same-rule findings from the two layers
   into one diagnostic, preferring the Parsetree copy (its message names
   what the programmer wrote; the resolved message explains an alias). *)
let dedup diags =
  let pref a b =
    match (a.layer, b.layer) with Parsetree, Cmt -> a | Cmt, Parsetree -> b | _ -> a
  in
  let sorted = List.stable_sort compare_diag diags in
  let rec go = function
    | a :: b :: rest when compare_diag a b = 0 -> go (pref a b :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

(* ------------------------------------------------------------------ *)
(* Waiver scanning (raw text; the compiler's parser drops comments).  *)

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  if k = 0 then None else go from

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let strip s =
  let n = String.length s in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do incr i done;
  while !j >= !i && is_ws s.[!j] do decr j done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

(* Parse one waiver body starting right after the allow marker.
   Returns (rule, reason). *)
let parse_waiver_tail tail =
  let n = String.length tail in
  let i = ref 0 in
  while !i < n && tail.[!i] = ' ' do incr i done;
  let r0 = !i in
  while !i < n && is_rule_char tail.[!i] do incr i done;
  let rule = String.sub tail r0 (!i - r0) in
  (* Optional separator, then the reason runs to the comment close. *)
  let rest = String.sub tail !i (n - !i) in
  let rest = match find_sub rest "*)" 0 with Some k -> String.sub rest 0 k | None -> rest in
  let rest = strip rest in
  let reason =
    if rest = "" then ""
    else begin
      let drop k = strip (String.sub rest k (String.length rest - k)) in
      if String.length rest >= 3 && String.sub rest 0 3 = "\xe2\x80\x94" then drop 3
      else if String.length rest >= 2 && String.sub rest 0 2 = "--" then drop 2
      else if rest.[0] = '-' || rest.[0] = ':' then drop 1
      else rest
    end
  in
  (rule, reason)

let scan_waivers ~file source =
  let lines = String.split_on_char '\n' source in
  let out = ref [] in
  List.iteri
    (fun i line ->
      match find_sub line "lint: allow" 0 with
      | None -> ()
      | Some at -> (
          (* Only a comment that opens on this line counts: prose or string
             literals merely mentioning the marker are not waivers. *)
          match find_sub line "(*" 0 with
          | Some op when op < at ->
              let tail = String.sub line (at + 11) (String.length line - at - 11) in
              let rule, reason = parse_waiver_tail tail in
              out :=
                { w_file = file; w_line = i + 1; w_rule = rule; w_reason = reason; w_used = false }
                :: !out
          | _ -> ()))
    lines;
  List.rev !out

(* A waiver covers its own line and the next one. *)
let covers w (d : diag) = w.w_rule = d.rule && (d.line = w.w_line || d.line = w.w_line + 1)

let apply_waivers waivers diags =
  List.filter
    (fun d ->
      match List.find_opt (fun w -> covers w d) waivers with
      | Some w ->
          w.w_used <- true;
          false
      | None -> true)
    diags

(* ------------------------------------------------------------------ *)
(* JSON rendering: strings go through the repo's one escape,
   Adhoc_util.Json.escape, so the reports quote exactly as the bench
   writer does. *)

module Json = Adhoc_util.Json

(* Per-rule summary line: id, effective severity, detection layer (as a
   string, so this module stays independent of Lint_rules), unwaived
   finding count and used-waiver count. *)
type rule_count = { rc_id : string; rc_severity : severity; rc_layer : string; rc_count : int; rc_waived : int }

type report = {
  files : int;
  cmt_units : int;  (* compilation units the cmt layer analyzed *)
  diags : diag list;  (* unwaived, sorted *)
  used_waivers : waiver list;
  rule_counts : rule_count list;  (* every registered rule *)
}

let errors r = List.length (List.filter (fun d -> d.severity = Error) r.diags)
let warnings r = List.length (List.filter (fun d -> d.severity = Warning) r.diags)

let to_json r =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add "  \"schema\": \"adhoc-lint/2\",\n";
  add (Printf.sprintf "  \"files\": %d,\n" r.files);
  add (Printf.sprintf "  \"cmt_units\": %d,\n" r.cmt_units);
  add (Printf.sprintf "  \"errors\": %d,\n" (errors r));
  add (Printf.sprintf "  \"warnings\": %d,\n" (warnings r));
  add "  \"rules\": [";
  List.iteri
    (fun i rc ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "\n    {\"id\": \"%s\", \"severity\": \"%s\", \"layer\": \"%s\", \"count\": %d, \"waived\": %d}"
           (Json.escape rc.rc_id) (severity_name rc.rc_severity) (Json.escape rc.rc_layer) rc.rc_count
           rc.rc_waived))
    r.rule_counts;
  add "\n  ],\n";
  add "  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "\n    {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \
            \"layer\": \"%s\", \"severity\": \"%s\", \"message\": \"%s\"}"
           (Json.escape d.file) d.line d.col (Json.escape d.rule) (diag_layer_name d.layer)
           (severity_name d.severity) (Json.escape d.message)))
    r.diags;
  add "\n  ],\n";
  add "  \"waivers\": [";
  List.iteri
    (fun i w ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"reason\": \"%s\"}"
           (Json.escape w.w_file) w.w_line (Json.escape w.w_rule) (Json.escape w.w_reason)))
    r.used_waivers;
  add "\n  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 export, for GitHub code-scanning upload.  Minimal but
   valid: one run, the registered rules as reportingDescriptors, one
   result per diagnostic.  SARIF columns are 1-based. *)

let to_sarif ~rule_docs r =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  add "{\n";
  add "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n    {\n";
  add "      \"tool\": {\n        \"driver\": {\n";
  add "          \"name\": \"adhoc_lint\",\n";
  add "          \"informationUri\": \"https://example.invalid/adhoc_lint\",\n";
  add "          \"rules\": [";
  List.iteri
    (fun i (id, doc) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "\n            {\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}"
           (Json.escape id) (Json.escape doc)))
    rule_docs;
  add "\n          ]\n        }\n      },\n";
  add "      \"results\": [";
  List.iteri
    (fun i d ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "\n        {\"ruleId\": \"%s\", \"level\": \"%s\", \"message\": {\"text\": \"%s\"}, \
            \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"%s\"}, \
            \"region\": {\"startLine\": %d, \"startColumn\": %d}}}]}"
           (Json.escape d.rule)
           (match d.severity with Error -> "error" | Warning -> "warning")
           (Json.escape d.message) (Json.escape d.file) d.line (d.col + 1)))
    r.diags;
  add "\n      ]\n    }\n  ]\n}\n";
  Buffer.contents buf
