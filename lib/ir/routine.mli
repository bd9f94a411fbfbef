(** Routines: the unit the optimizer analyses and transforms.

    A routine is a labelled instruction stream with one or more entry
    points and zero or more exits ([ret] instructions).  Labels name
    instruction positions; branch targets refer to labels within the same
    routine, call targets refer to other routines by name. *)

open Spike_isa

type t = {
  name : string;
  insns : Insn.t array;
  labels : (string * int) list;
      (** label [->] index of the instruction it precedes; an index equal to
          [Array.length insns] labels the routine's end (only valid if
          nothing branches there). *)
  entries : string list;
      (** labels at which callers may enter; never empty.  The first is the
          primary entry used by direct calls. *)
  exported : bool;
      (** whether the routine may be called from outside the analysed image
          (forces conservative live-at-exit assumptions). *)
}

val make :
  ?exported:bool ->
  name:string ->
  entries:string list ->
  labels:(string * int) list ->
  Insn.t array ->
  t

val label_index : t -> string -> int option
(** Position of a label, if defined. *)

val primary_entry : t -> string

val instruction_count : t -> int

val exit_count : t -> int
(** Number of [ret] instructions. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the assembly listing: the [.routine] header, [.entry]
    directives, labels and indented instructions, and [.end], each line
    ending in a newline. *)

val pp : Format.formatter -> t -> unit
(** {!to_buffer}'s listing. *)
