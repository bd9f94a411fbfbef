(** Summary files: compiler/linker-provided register summaries for code
    outside the analysed image (paper §3.5).

    Spike's safety for indirect and shared-library calls rests on the
    calling-standard assumption; the paper notes that "dataflow accuracy
    can be improved if additional information is provided to Spike by the
    compiler or linker".  A summary file is that channel — one entry per
    external routine:

    {v
    # summaries for libc
    .summary memcpy
      used = {a0, a1, a2}
      defined = {v0}
      killed = {v0, t0, t1, t2, ra}
    .end
    v}

    Unlisted registers are not used/defined/killed; the sets must describe
    the external routine as seen by a caller (after its own callee-saved
    save/restores).  The hardwired zeros [zero] and [f31] may be listed but
    are dropped: they never carry dataflow. *)

open Spike_core

exception Error of { line : int; message : string }

val of_string : string -> (string * Psg.external_class) list
(** Parse a summary file through the same {!Lexer} cursor as programs.
    @raise Error with the first offending 1-based line (0 for a summary
    not closed by the end of the input). *)

val of_file : string -> (string * Psg.external_class) list

val lookup : (string * Psg.external_class) list -> string -> Psg.external_class option
(** Resolution function in the shape {!Spike_core.Analysis.run} expects. *)

val to_string : (string * Psg.external_class) list -> string
(** Render in the concrete syntax; inverse of {!of_string}. *)
