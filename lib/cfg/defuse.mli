(** Per-block DEF and UBD sets.

    DEF[B] is the set of registers defined in block [B]; UBD[B] the set of
    registers used in [B] before any definition in [B].  These are the
    inputs to the Figure-6 dataflow that labels PSG flow-summary edges, and
    to the baseline supergraph analysis.  Computing them is the paper's
    "Initialization" stage (Figure 13), kept separate from CFG
    construction so the two can be timed independently.

    A terminating call instruction is excluded from its block's sets: the
    call's own register effect (defining [ra]; an indirect call also reads
    the target register) is folded into the call-return edge so that it
    composes correctly with the callee's summary.

    The sets are two lanes beside the {!Cfg}'s, indexed by block id; a
    {!Spike_support.Regset.t} is an immediate int, so each lane is one
    unboxed word per block. *)

open Spike_support

type t = private {
  def : Regset.t array;  (** indexed by block id *)
  ubd : Regset.t array;
}

val compute : Cfg.t -> t
(** One pass over each block's instruction range, read off the CFG's
    [first] lane; allocates only the two lanes. *)

val def : t -> int -> Regset.t
val ubd : t -> int -> Regset.t
