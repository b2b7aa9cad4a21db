(** JSON values: one strict reader and one compact writer.

    The toolchain ships no JSON library, and every document the tools
    exchange is small and flat, so this module is the one JSON grammar
    they share: the bench harness writes with it, and [json_check] and
    the event-log loader ([Adhoc_obs.Event.load_jsonl]) read with it.

    The reader is strict RFC 8259:
    - a number is an optional minus, then [0] or a digit string that
      does not start with [0], then an optional fraction ([.] and one or
      more digits) and an optional exponent ([e] or [E], an optional
      sign, one or more digits);
    - the only string escapes are the eight single-character ones
      (quote, backslash, slash, [b f n r t]) and [u] followed by exactly
      four hex digits;
    - strings hold no raw control character (below [0x20]);
    - an object names each member once;
    - nothing but whitespace follows the value.

    Values keep their text: a number is its literal, so callers choose
    how to read it ([int_of_string] keeps [3.0] from passing as an
    integer, [float_of_string] round-trips [%.17g] costs bit for bit),
    and a string is the raw text between its quotes, escapes checked but
    not decoded — every string these formats carry is a plain word. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's literal text *)
  | Str of string  (** the text between the quotes, escapes not decoded *)
  | Arr of t list
  | Obj of (string * t) list  (** members in document order, names unique *)

val of_string : string -> (t, string) result
(** Read one JSON value that spans the whole string (surrounding
    whitespace allowed).  The [Error] message reads
    [<problem> at offset N], [N] being the 0-based byte offset where
    reading stopped.  Malformed input gives [Error], never an
    exception. *)

val to_string : t -> string
(** Compact text: no whitespace between tokens.  [Num] is written
    verbatim and [Str] through {!escape}, so [of_string (to_string v)]
    is [Ok v] whenever [v]'s numbers are valid literals, no object
    repeats a member name and no string needs escaping. *)

val escape : string -> string
(** The text of a JSON string literal without its quotes: the quote,
    the backslash, newline, carriage return and tab get their
    two-character escapes, the other control characters a [u00XX]
    escape; every other byte is unchanged. *)

val int : int -> t
(** [Num] of the decimal text. *)

val float : float -> t
(** [Num] of the [%.12g] text (twelve significant digits, the bench
    documents' precision); [Null] for nan and infinities, which JSON
    cannot express. *)
