(** Recursive-descent parser for the textual assembly format.

    Grammar (one construct per line):
    {v
    program    ::= ".main" NAME  routine*
    routine    ::= ".routine" NAME [".exported"]  item*  ".end"
    item       ::= ".entry" LABEL | LABEL ":" | instruction
    instruction::= "li" REG "," INT
                 | "lda" REG "," INT "(" REG ")"
                 | "mov" REG "," REG
                 | BINOP REG "," (REG | INT) "," REG
                 | "ldq" REG "," INT "(" REG ")"
                 | "stq" REG "," INT "(" REG ")"
                 | "br" LABEL
                 | BCOND REG "," LABEL
                 | "switch" REG "," "[" LABEL ("," LABEL)* "]"
                 | "jmp" "(" REG ")"
                 | "bsr" "ra" "," NAME
                 | "jsr" "ra" "," "(" REG ")" ["," "[" NAME ("," NAME)* "]"]
                 | "ret" | "nop"
    v}
    [#] starts a comment.  The parser validates nothing beyond syntax; run
    {!Spike_ir.Validate.check} on the result.

    Lexing and parsing are one pass over the source: the parser reads each
    line from the {!Lexer} cursor's token buffers as soon as it is lexed,
    and resolves registers and mnemonics from packed name keys.  An error
    is reported at the first offending line in source order, lexical or
    syntactic.  (The line-list parser this replaced lexed the whole file
    first, so a lexical error on a later line used to win over a syntax
    error on an earlier one.)  Errors that only the end of the input
    reveals — an unclosed routine, a missing [.main], a duplicate routine
    or an undefined [main] — are reported at line 0.

    Names are interned: a routine's labels are one string each, shared by
    the definition, its [.entry] directives and every branch to it, and a
    routine's name is one string shared by every [bsr]/[jsr] that names
    it, wherever the call stands in the program. *)

open Spike_ir

exception Error of { line : int; message : string }
(** Raised on syntax errors, with the 1-based source line. *)

val program_of_string : string -> Program.t
(** @raise Error on malformed input (including {!Lexer.Error}, re-raised
    as this exception). *)

val program_of_file : string -> Program.t
(** Reads and parses a file.  @raise Sys_error / Error. *)
