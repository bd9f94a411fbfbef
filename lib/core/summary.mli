(** Register summaries (paper §2): the product of the analysis.

    For every routine, the registers used, defined and killed by a call to
    it, and the registers live at each of its entries and exits.  These are
    the sets that let the optimizer treat a call as a single
    "call-summary instruction" and insert entry/exit pseudo-instructions
    delimiting a routine's external register traffic. *)

open Spike_support
open Spike_ir

type call_class = {
  used : Regset.t;  (** call-used: may be read before written by the call *)
  defined : Regset.t;  (** call-defined: written on every returning path *)
  killed : Regset.t;  (** call-killed: may be written by the call *)
}

type t = {
  routine : int;
  name : string;
  call_class : call_class;
      (** summary of a call to this routine's primary entry, after the
          §3.4 callee-saved filter *)
  live_at_entry : (string * Regset.t) list;
      (** entry label [->] registers live on entering there *)
  live_at_exit : (int * Regset.t) list;
      (** exit block id [->] registers live after returning from there *)
}

val extract_call_classes : Psg.t -> call_class array
(** Per-routine call classes, read from phase 1's lane; call after
    {!Phase1.run}. *)

val extract : Psg.t -> call_class array -> t array
(** Full summaries; call after {!Phase2.run}. *)

val site_class : Psg.t -> call_class array -> int -> call_class
(** [site_class psg classes c] is the summary call [c] observes: the merge (union of MAY
    sets, intersection of MUST) over the routines the site can target, or
    the calling-standard assumption when the target is unknown.  The call
    instruction's own hardware effect (defining [ra]) is {e not} included;
    consult {!Spike_isa.Insn.defs} for it. *)

val find : t array -> Program.t -> string -> t option
(** Summary of a routine by name. *)

val pp : Format.formatter -> t -> unit
