type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* What went wrong, and the offset reading stopped at. *)
exception Bad of string * int

let is_digit c = c >= '0' && c <= '9'

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (what, !pos)) in
  (* '\000' past the end: no rule below accepts it as a token. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let digits () =
    if not (is_digit (peek ())) then fail "expected a digit";
    while is_digit (peek ()) do
      incr pos
    done
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then begin
      incr pos;
      if is_digit (peek ()) then fail "leading zero"
    end
    else digits ();
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let string () =
    expect '"';
    let start = !pos in
    let rec go () =
      match peek () with
      | '"' ->
          incr pos;
          String.sub s start (!pos - 1 - start)
      | '\\' ->
          incr pos;
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr pos
          | 'u' ->
              incr pos;
              for _ = 1 to 4 do
                if is_hex (peek ()) then incr pos else fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          go ()
      | _ when !pos >= n -> fail "unterminated string"
      | c when Char.code c < 0x20 -> fail "control character in string"
      | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ when !pos >= n -> fail "unexpected end of input"
    | _ -> fail "expected a value"
  and members acc =
    skip_ws ();
    let at = !pos in
    let name = string () in
    if List.mem_assoc name acc then begin
      pos := at;
      fail (Printf.sprintf "repeated member name %S" name)
    end;
    skip_ws ();
    expect ':';
    let acc = (name, value ()) :: acc in
    skip_ws ();
    match peek () with
    | ',' ->
        incr pos;
        members acc
    | '}' ->
        incr pos;
        Obj (List.rev acc)
    | _ -> fail "expected ',' or '}'"
  and elements acc =
    let acc = value () :: acc in
    skip_ws ();
    match peek () with
    | ',' ->
        incr pos;
        elements acc
    | ']' ->
        incr pos;
        Arr (List.rev acc)
    | _ -> fail "expected ',' or ']'"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "text after the value";
    v
  with
  | v -> Ok v
  | exception Bad (what, at) -> Error (Printf.sprintf "%s at offset %d" what at)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num s -> Buffer.add_string buf s
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let int i = Num (string_of_int i)

let float f = if Float.is_finite f then Num (Printf.sprintf "%.12g" f) else Null
