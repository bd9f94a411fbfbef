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
(** Indexes, ascending, of the instructions of one routine that die under
    the analysis's summaries held fixed: the whole cascade inside the
    routine, not one round.  A first backward sweep from the given
    liveness marks what is dead; a marked instruction's uses and defs
    leave the routine, whose block fixpoint is re-solved from empty
    ({!Liveness.solve}) for the next sweep, until a sweep marks nothing.
    A routine in which nothing dies costs one sweep.  The result is what
    removing dead instructions one round at a time would reach, with the
    summaries fixed; it is not faint-variable elimination (a definition
    that only feeds itself around a loop stays). *)

val eliminate :
  rerun:(Analysis.t -> Spike_ir.Program.t -> Analysis.t) ->
  Analysis.t ->
  Spike_ir.Program.t * int
(** Remove dead instructions program-wide, re-analysing with [rerun]
    (normally {!Analysis.rerun}) and repeating until a round removes
    nothing.  Each round converges every routine's own cascade
    ({!find_dead}), so a rerun is needed only for cascades that cross
    routines: a callee that no longer reads an argument register, or a
    caller that no longer reads a return value.  Returns the optimized
    program and the total number of instructions removed.  Each round
    returns the routines it found nothing dead in physically shared, so a
    warm {!Analysis.rerun} reuses their analysis. *)
