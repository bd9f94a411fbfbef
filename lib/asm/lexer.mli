(** Cursor lexer for the textual assembly format and summary files.

    The format is line-based: every directive, label definition and
    instruction occupies one line.  [#] starts a comment running to the end
    of the line; spaces, tabs and carriage returns separate tokens, so CRLF
    line endings are accepted.

    One cursor walks the source string once.  {!next_line} lexes the next
    line that holds a token into reusable buffers (kind, start, length and
    integer value per token), and the parser reads that line by token index
    before it asks for the next one.  No token list is built, and an
    identifier stays a span of the source until the parser needs it as a
    string (a label, a routine or callee name); registers and mnemonics are
    resolved from the span's {!Spike_isa.Name_key}.  Because lexing and
    parsing interleave, an error is reported at the first offending line in
    source order, whether it is a lexical or a syntax error. *)

type kind =
  | Ident  (** mnemonics, register names, labels, routine names *)
  | Int  (** decimal integers, possibly negative *)
  | Directive  (** [.routine], [.entry], ...; the span excludes the dot *)
  | Comma
  | Colon
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Equals

exception Error of { line : int; message : string }

type t
(** A cursor over one source string. *)

val create : string -> t

val next_line : t -> bool
(** Advances to the next line that holds a token (blank and comment-only
    lines are skipped) and lexes it; [false] at the end of the input.
    @raise Error on an unexpected character, a ['.'] without a directive
    name, or an integer outside OCaml's [int] range. *)

val line : t -> int
(** 1-based number of the current line. *)

val length : t -> int
(** Number of tokens on the current line. *)

(** Token [i] of the current line, [0 <= i < length t]: *)

val kind : t -> int -> kind

val int : t -> int -> int
(** The value of an [Int] token. *)

val key : t -> int -> int
(** The {!Spike_isa.Name_key} of the token's span. *)

val text : t -> int -> string
(** A copy of the token's span. *)

val is : t -> int -> string -> bool
(** [is t i s]: the token's span is spelled [s]. *)

val shape : t -> kind array -> bool
(** [shape t kinds]: the current line's tokens have exactly these kinds. *)

val starts_with : t -> kind array -> bool
(** [starts_with t kinds]: the current line's first tokens have these
    kinds. *)
