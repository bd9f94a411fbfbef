(** The Alpha/NT calling standard (paper §3.4, §3.5).

    Register roles determine two things in the analysis:

    - which registers a routine may save and restore transparently
      (callee-saved registers are filtered out of the summary sets an entry
      node exports to its callers, §3.4);
    - the conservative summary assumed for calls and jumps whose target is
      unknown (§3.5): argument registers are call-used, return-value
      registers are call-defined, and caller-saved temporaries are
      call-killed. *)

open Spike_support

val zero_regs : Regset.t
(** The hardwired zero register [zero] inside the {!Regset} universe;
    excluded from every dataflow set.  [f31], the other hardwired zero, is
    outside the universe altogether. *)

val callee_saved : Regset.t
(** [s0 .. s5], [fp], [sp], [f2 .. f9]: preserved across calls. *)

val caller_saved : Regset.t
(** Everything a conforming callee may clobber: the complement of
    callee-saved and zero registers. *)

val argument_regs : Regset.t
(** [a0 .. a5] and [f16 .. f21]. *)

val return_regs : Regset.t
(** [v0] and [f0]. *)

val all_allocatable : Regset.t
(** Every register that can carry a live value (all but the zeros). *)

val unknown_call_used : Regset.t
(** Assumed MAY-USE of a call to an unknown target: argument registers plus
    [pv], [gp], [sp] and [ra] (the callee returns through [ra], which the
    call instruction itself defines). *)

val unknown_call_defined : Regset.t
(** Assumed MUST-DEF of an unknown call: the return-value registers. *)

val unknown_call_killed : Regset.t
(** Assumed MAY-DEF of an unknown call: all caller-saved registers. *)

val unknown_jump_live : Regset.t
(** Registers assumed live at the target of an indirect jump whose targets
    cannot be determined: everything allocatable. *)

val external_return_live : Regset.t
(** Registers assumed live at the exit of a routine that may be called from
    outside the analysed image (exported or address-taken): the return
    values plus everything the caller expects preserved. *)
