(* adhoc_exports — which of lib/'s exported values the rest of the tree
   refers to.

     adhoc_exports [--runtime]

   Reads every lib/ .cmti for the values its signature exports, sub-module
   signatures included, and every .cmt under lib bin bench examples lint
   test for the values each unit refers to (the definition uid of every
   Texp_ident).  A unit's references to its own values are skipped: an
   implementation numbers its uids in the same space as its interface, so
   they would read as references to unrelated exports.

   By default it names every export that no other unit refers to and
   exits 1 if there is one.  --runtime names, and exits 0, the exports
   that no other unit of lib bin bench or examples refers to: the ones
   only the tests or the tools reach.  Run it after dune build @check,
   from the repository root or from _build/default. *)

open Typedtree

let roots = [ "lib"; "bin"; "bench"; "examples"; "lint"; "test" ]

let runtime_roots = [ "lib"; "bin"; "bench"; "examples" ]

let skipped = [ "lint_fixtures"; "cmt_fixtures" ]

(* Artifacts live under _build/default; dune runs the tool from there. *)
let base = if Sys.file_exists "_build/default/lib" then "_build/default" else "."

let rec files_under suffix path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun entry -> not (List.mem entry skipped))
    |> List.concat_map (fun entry -> files_under suffix (Filename.concat path entry))
  else if Filename.check_suffix path suffix then [ path ]
  else []

let unit_of_uid = function Shape.Uid.Item { comp_unit; _ } -> Some comp_unit | _ -> None

(* (qualified name, source file, uid) of every value a signature exports. *)
let rec exports prefix file (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix ^ "." ^ vd.val_name.txt, file, vd.val_val.Types.val_uid) ]
      | Tsig_module { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sub; _ }; _ } ->
          exports (prefix ^ "." ^ name) file sub
      | _ -> [])
    sg.sig_items

let interface_exports path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Interface sg ->
      let file = Option.value cmt.cmt_sourcefile ~default:path in
      exports (String.capitalize_ascii (Filename.remove_extension (Filename.basename file))) file sg
  | _ -> []

(* The uids that a unit's implementation refers to outside itself. *)
let references path =
  let cmt = Cmt_format.read_cmt path in
  let self = Some cmt.Cmt_format.cmt_modname in
  let found = ref Shape.Uid.Set.empty in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) when unit_of_uid vd.Types.val_uid <> self ->
        found := Shape.Uid.Set.add vd.Types.val_uid !found
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  (match cmt.cmt_annots with Cmt_format.Implementation str -> it.structure it str | _ -> ());
  !found

let referenced_from dirs =
  List.concat_map (fun dir -> files_under ".cmt" (Filename.concat base dir)) dirs
  |> List.fold_left (fun acc path -> Shape.Uid.Set.union acc (references path)) Shape.Uid.Set.empty

let () =
  let runtime =
    match Array.to_list Sys.argv with
    | [ _ ] -> false
    | [ _; "--runtime" ] -> true
    | _ ->
        prerr_endline "usage: adhoc_exports [--runtime]";
        exit 2
  in
  let used = referenced_from (if runtime then runtime_roots else roots) in
  let unused =
    files_under ".cmti" (Filename.concat base "lib")
    |> List.concat_map interface_exports
    |> List.filter (fun (_, _, uid) -> not (Shape.Uid.Set.mem uid used))
  in
  List.iter (fun (name, file, _) -> Printf.printf "%s (%s)\n" name file) unused;
  let n = List.length unused in
  if runtime then Printf.printf "%d lib exports with no reference from lib, bin, bench or examples\n" n
  else if n > 0 then begin
    Printf.printf "%d lib exports with no reference from another unit: delete them or drop them from the .mli\n" n;
    exit 1
  end
