(** Interprocedural dead-code elimination (Figure 1(a)/(b)).

    An instruction is dead when it has no side effect other than defining
    registers, and none of the registers it defines is live immediately
    after it.  The liveness is the summary-driven one: a definition of a
    return register before [ret] dies when no caller uses the returned
    value (1(a)); a definition of an argument register before a call dies
    when no possible callee reads that argument (1(b)).  Neither is
    computable without the interprocedural summaries. *)

open Spike_core

val find_dead : Analysis.t -> Liveness.t -> routine:int -> int list
(** Indexes of dead instructions in one routine (one elimination round:
    removing them can expose more). *)

val eliminate :
  rerun:(Analysis.t -> Spike_ir.Program.t -> Analysis.t) ->
  Analysis.t ->
  Spike_ir.Program.t * int
(** Remove dead instructions program-wide, re-analysing with [rerun]
    (normally {!Analysis.rerun}) and repeating until a fixpoint.  Returns
    the optimized program and the total number of instructions removed.
    Each round returns the routines it found nothing dead in physically
    shared, so a warm {!Analysis.rerun} reuses their analysis. *)
