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

    The sets are one lane beside the {!Cfg}'s, interleaved by block id:
    DEF of block [b] at [2b], its UBD at [2b + 1].  A
    {!Spike_support.Regset.t} is an immediate int, so the lane is one
    array of two unboxed words per block. *)

open Spike_support

type t

val compute : Cfg.t -> t
(** One pass over each block's instruction range, read off the CFG's
    block starts; allocates only the lane. *)

val def : t -> int -> Regset.t
(** @raise Invalid_argument unless the block is one of the CFG's the
    sets were computed from. *)

val ubd : t -> int -> Regset.t
(** @raise Invalid_argument unless the block is one of the CFG's the
    sets were computed from. *)
