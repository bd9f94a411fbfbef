(** Callee-saved save/restore elimination with reallocation (Figure 1(d)).

    A routine pays a store in its prologue and a load per epilogue to hold
    a value in callee-saved register [s].  When the interprocedural
    summaries prove some caller-saved register [t] survives every call the
    value lives across — and nobody outside the routine cares about [t] —
    the value can live in [t] instead and the save/restore disappears.

    Conditions checked for a rewrite of [s] to [t] in routine [R]:
    - [s] is a detected save/restore idiom ({!Spike_core.Callee_saved});
    - [R] never reads its caller's incoming [s] value (every path from the
      entry reaches a definition of [s] before any non-save use);
    - [t] has no occurrence in [R], is caller-saved (but not one of [ra],
      [pv], [at], [gp]), is not live at [R]'s entry, and is not live at
      any of [R]'s exits;
    - for every call [s] is live across, [t] is not call-killed.

    The transformation deletes the save and restores and renames every
    other occurrence of [s] to [t].  Callers are unaffected: [R] no longer
    touches [s] at all, and nothing downstream reads [t]. *)

open Spike_core

type renaming = {
  routine : int;
  saved : Spike_isa.Reg.t;
  replacement : Spike_isa.Reg.t;
  removed_instructions : int;  (** save + restores deleted *)
}

val find : Analysis.t -> Liveness.t -> renaming list

val apply : Analysis.t -> Spike_ir.Program.t * renaming list
(** {!find}'s renamings, applied: each routine with any is rewritten once,
    from the sites detected on the analysed routine — every renaming,
    then one deletion of all their saves and restores. *)
