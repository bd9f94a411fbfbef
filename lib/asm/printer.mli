(** Printer for programs in the textual assembly format.

    The syntax is written once, to a [Buffer], by {!Spike_isa.Insn.to_buffer},
    {!Spike_ir.Routine.to_buffer} and {!Spike_ir.Program.to_buffer};
    [to_string], [to_file] and [pp_program] all go through that writer, and
    the [pp] functions of those modules print the same text.

    Guaranteed inverse of {!Parser}: for every well-formed program [p],
    [Parser.program_of_string (Printer.to_string p)] reconstructs [p]
    (same routines, labels, entries and instructions). *)

open Spike_ir

val pp_program : Format.formatter -> Program.t -> unit
val to_string : Program.t -> string
val to_file : string -> Program.t -> unit
