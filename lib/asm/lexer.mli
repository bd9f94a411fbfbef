(** Cursor lexer for the textual assembly format and summary files.

    The format is line-based: every directive, label definition and
    instruction occupies one line.  [#] starts a comment running to the end
    of the line; spaces, tabs and carriage returns separate tokens, so CRLF
    line endings are accepted.

    One cursor walks the source string once.  {!next_line} lexes the next
    line that holds a token into reusable buffers (kind, start, stop and
    value per token), and the parser reads that line by token index before
    it asks for the next one.  No token list is built.  Because lexing and
    parsing interleave, an error is reported at the first offending line in
    source order, whether it is a lexical or a syntax error.

    Byte classes: a 256-entry table gives every byte its class (blank,
    newline, comment, punctuation, dot, minus, digit, letter or bad).  The
    scanner dispatches on the class of a token's first byte and runs a
    first-order loop over the rest, so no closure is called per byte.  The
    loop that scans a name also packs its {!Spike_isa.Name_key}, and the
    loop that scans an integer accumulates its value; both land in the
    token's value slot.

    Interning: an identifier stays a span of the source.  Registers and
    mnemonics are resolved from the span's name key; a parser that needs a
    name as a string (a label, a routine or callee name) can intern it by
    its span ({!source}, {!start}, {!stop}), so that one string serves
    every occurrence. *)

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
(** The {!Spike_isa.Name_key} of an [Ident] or [Directive] token's span
    ([-1] for a name longer than 7 bytes). *)

val source : t -> string
(** The source string the cursor walks. *)

val start : t -> int -> int
(** Offset of the token's first byte in {!source} (for a [Directive], the
    byte after the dot). *)

val stop : t -> int -> int
(** Offset just past the token's last byte. *)

val text : t -> int -> string
(** A copy of the token's span. *)

val is : t -> int -> string -> bool
(** [is t i s]: the token's span is spelled [s]. *)

val shape : t -> kind array -> bool
(** [shape t kinds]: the current line's tokens have exactly these kinds. *)

val starts_with : t -> kind array -> bool
(** [starts_with t kinds]: the current line's first tokens have these
    kinds. *)
