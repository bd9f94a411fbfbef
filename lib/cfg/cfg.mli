(** Per-routine control-flow graphs.

    Following the paper (§3.1), a basic block is ended by a branch {e or by
    a call instruction}: the instruction after a call is the call's return
    point and must start a fresh block so the PSG can place a return node
    there.  Blocks are contiguous instruction ranges; arcs come from the
    block's final instruction (branch targets, fallthrough, and the
    fallthrough of a call to its return point).

    A graph is stored as flat lanes indexed by block id, like the PSG's,
    rather than as one record per block:

    - [first] has one slot per block plus an end sentinel: block [b]
      covers instructions [first.(b) .. first.(b + 1) - 1], and
      [first.(nblocks)] is the routine's instruction count;
    - [endings] holds one tag byte per block ({!ending}); a call block's
      callee is read off its final instruction ({!callee});
    - successors are CSR: block [b]'s successors are
      [succ_adj.(succ_off.(b)) .. succ_adj.(succ_off.(b + 1) - 1)].

    A block's successors are deduplicated and ordered as its final
    instruction names them: branch targets in table order, then the
    fallthrough.  No predecessor lane is kept: what reads predecessors
    is short-lived (the edge labelling's region search, two in-degree
    tests), so {!pred_rows} builds the transposed rows into a caller's
    arrays and {!preds} scans the successor lanes.  The block containing
    an instruction is a binary search over [first] ({!block_of_insn}), so
    no per-instruction lane is kept.  Apart from [routine] and
    [entry_blocks], a graph is two words and a byte per block plus one
    word per arc. *)

open Spike_isa
open Spike_ir

type ending =
  | Ends_plain  (** fallthrough or unconditional/conditional branch *)
  | Ends_call
      (** block terminated by a call; its single CFG successor is the
          return point *)
  | Ends_ret
  | Ends_switch  (** multiway branch through a jump table *)
  | Ends_jump_unknown
      (** indirect jump with undetermined targets; conservatively an exit
          at which all registers are live (§3.5) *)

type t = private {
  routine : Routine.t;
  first : int array;  (** block [->] its first instruction; length [nblocks + 1] *)
  endings : Bytes.t;  (** block [->] its {!ending}, one byte each *)
  succ_off : int array;  (** length [nblocks + 1] *)
  succ_adj : int array;
  entry_blocks : (string * int) list;  (** entry label [->] block id *)
}

val build : Routine.t -> t
(** Partition the routine and compute arcs, in one pass over the
    instructions and one over the blocks.  The routine must be well-formed
    ({!Spike_ir.Validate}).  Per-block DEF/UBD sets are a separate
    analysis stage; see {!Defuse}. *)

val block_count : t -> int

val first : t -> int -> int
(** Index of the block's first instruction. *)

val last : t -> int -> int
(** Index of the block's final instruction (inclusive). *)

val ending : t -> int -> ending

val callee : t -> int -> Insn.callee
(** The callee of a block ending in a call.
    @raise Invalid_argument if the block does not end in a call. *)

val return_block : t -> int -> int
(** The return point of a block ending in a call: its only successor.
    @raise Invalid_argument if the block does not end in a call. *)

val block_of_insn : t -> int -> int
(** The block containing an instruction index, by binary search over
    [first]. *)

val succ_count : t -> int -> int

val pred_count : t -> int -> int
(** A block's in-degree, by a scan of every successor row: O(arcs). *)

val succs : t -> int -> int array
(** A fresh copy of a block's successor row.  Hot loops read [succ_off] and
    [succ_adj] directly. *)

val preds : t -> int -> int array
(** A block's predecessors, ascending, by a scan of every successor row:
    O(arcs).  A pass that reads many rows builds them once with
    {!pred_rows}. *)

val pred_rows : t -> off:int array -> adj:int array -> unit
(** [pred_rows g ~off ~adj] writes every block's predecessors as CSR,
    by counting sort over the arcs: block [b]'s are
    [adj.(off.(b)) .. adj.(off.(b + 1) - 1)], ascending.  [off] needs
    [block_count g + 1] slots and [adj] {!arc_count} slots; longer arrays
    are reused as they are, so one pair can serve a routine's every
    search.  O(blocks + arcs), no allocation. *)

val iter_succs : (int -> unit) -> t -> int -> unit

val iter_preds : (int -> unit) -> t -> int -> unit
(** [f] on each predecessor, ascending, like {!preds}: O(arcs). *)

val fold_succs : ('a -> int -> 'a) -> 'a -> t -> int -> 'a
(** Left fold over a block's successors, in row order. *)

val arc_count : t -> int
(** Intra-routine arcs (sum of successor degrees). *)

val call_sites : t -> (int * Insn.callee) list
(** Blocks ending in calls, in block order. *)

val exit_blocks : t -> int list
(** Blocks ending in [ret]. *)

val unknown_jump_blocks : t -> int list

val branch_instruction_count : t -> int
(** Number of branch instructions ([br], conditional, switch) — the
    "Branches/Routine" statistic of Table 3. *)

val reverse_postorder : t -> int array
(** Blocks in reverse postorder from the routine's entry blocks
    (unreachable blocks appended at the end).  Good iteration order for the
    forward direction; reversed, for backward dataflow. *)

val pp : Format.formatter -> t -> unit
