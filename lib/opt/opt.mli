(** The optimization driver: Spike's summary-driven transformations.

    One [run] applies, in order: redundant spill removal (Fig. 1(c)),
    callee-saved save/restore elimination (Fig. 1(d)), and interprocedural
    dead-code elimination to fixpoint (Fig. 1(a)/(b)), re-running the
    dataflow analysis between passes so later passes see summaries of the
    already-transformed program.  Each rerun is warm ({!Analysis.rerun}):
    only the routines a pass rewrote are rebuilt. *)

open Spike_core

type report = {
  spills_removed : int;  (** store/reload pairs deleted (1(c)) *)
  save_restores_rewritten : int;  (** callee-saved registers reallocated (1(d)) *)
  save_restore_instructions_removed : int;
  dead_instructions_removed : int;  (** 1(a)/(b) and exposed dead code *)
  instructions_before : int;
  instructions_after : int;
  reanalyses : int;  (** {!Analysis.rerun} calls between passes *)
  routines_rebuilt : int;
      (** routines those reruns re-analysed rather than reused, summed *)
}

val pp_report : Format.formatter -> report -> unit

val run : Analysis.t -> Spike_ir.Program.t * report
(** The returned program is validated and has the same observable
    behaviour (same interpreter outcome) as the input. *)
