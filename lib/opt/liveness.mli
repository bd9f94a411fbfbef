(** Instruction-granularity liveness from the interprocedural summaries.

    This is the consumer-side view the paper's §2 describes: each call is a
    call-summary instruction (uses = call-used, defines = call-defined,
    kills = call-killed of its possible callees), each exit uses its
    live-at-exit set.  The per-routine backward fixpoint then yields, for
    every instruction, the registers live immediately after it — exactly
    what dead-code elimination and the register transformations need. *)

open Spike_support
open Spike_core

type t

val compute : Analysis.t -> t

val live_in : t -> routine:int -> block:int -> Regset.t
val live_out : t -> routine:int -> block:int -> Regset.t

val live_across_call : t -> routine:int -> block:int -> Regset.t
(** For a block ending in a call: the registers live at the call's return
    point.  @raise Invalid_argument if the block does not end in a call. *)

val live_before_call : t -> routine:int -> block:int -> Regset.t -> Regset.t
(** For a block ending in a call: [live_before_call t ~routine ~block l]
    is the liveness immediately before the call instruction when [l] is
    live at its return point (the call's own effect composed with its
    callees' summary).  @raise Invalid_argument if the block does not end
    in a call. *)

val solve :
  t -> routine:int -> def:Regset.t array -> ubd:Regset.t array -> Regset.t array
(** [solve t ~routine ~def ~ubd] re-solves one routine's least block
    fixpoint, from empty and under [t]'s summaries, with the per-block
    DEF and UBD sets [def] and [ubd] (indexed by block id, a terminating
    call excluded as in {!Spike_cfg.Defuse}) in place of the routine's
    own.  Returns every block's liveness at its end, in {!live_out}'s
    convention.  [compute] is this with {!Spike_cfg.Defuse}'s sets. *)
