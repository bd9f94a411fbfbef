(** Per-routine control-flow graphs.

    Following the paper (§3.1), a basic block is ended by a branch {e or by
    a call instruction}: the instruction after a call is the call's return
    point and must start a fresh block so the PSG can place a return node
    there.  Blocks are contiguous instruction ranges; arcs come from the
    block's final instruction (branch targets, fallthrough, and the
    fallthrough of a call to its return point).

    A graph is one byte buffer, [lanes], of 32-bit native-endian words
    followed by one byte per block, rather than one record per block or
    one array per lane.  For [n] blocks and [a] arcs the words are, in
    order:

    - the block starts: [n + 1] words, word [b] being block [b]'s first
      instruction and word [n] (the end sentinel) the routine's
      instruction count;
    - the successor offsets: [n + 1] words, block [b]'s successors
      filling slots [succ_start b .. succ_stop b - 1];
    - the successor block ids: [a] words, one per slot ({!succ_at});
    - the entry blocks: one word per label of [routine.entries], in that
      order ({!entry_block}).

    The last [n] bytes are the blocks' {!ending} tags; a call block's
    callee is read off its final instruction ({!callee}).

    Every read is bounds-checked twice: against the index's own lane (a
    block id, arc slot or entry position out of range raises
    [Invalid_argument]; it never reads a neighbouring lane) and against
    the buffer.

    A block's successors are deduplicated and ordered as its final
    instruction names them: branch targets in table order, then the
    fallthrough.  No predecessor lane is kept: what reads predecessors
    is short-lived (the edge labelling's region search, two in-degree
    tests), so {!pred_rows} builds the transposed rows into a caller's
    arrays and {!preds} scans the successor lanes.  The block containing
    an instruction is a binary search over the block starts
    ({!block_of_insn}), so no per-instruction lane is kept.  Apart from
    [routine], a graph is a five-word record and one buffer of
    [4 (2n + 2 + a + e) + n] bytes for [e] entries. *)

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
  lanes : Bytes.t;  (** the words and ending bytes described above *)
  nblocks : int;
  narcs : int;
}

val build : Routine.t -> t
(** Partition the routine and compute arcs: two passes over the
    instructions find the leaders, then the blocks and the arcs their
    final instructions name, which size the buffer; one pass over the
    blocks writes the successor rows into it (a routine with duplicate
    arcs is copied once into a buffer cut to fit).  The only other
    allocations are scratch: a leader byte per instruction, a label
    table and one word per block.  The routine must be well-formed
    ({!Spike_ir.Validate}).  Per-block DEF/UBD sets are a separate
    analysis stage; see {!Defuse}. *)

val block_count : t -> int

val first : t -> int -> int
(** Index of the block's first instruction.  Like every accessor taking
    a block id, raises [Invalid_argument] unless [0 <= b < block_count]. *)

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
    the block starts. *)

val entry_count : t -> int
(** The routine's entry labels, [List.length routine.entries]. *)

val entry_block : t -> int -> int
(** [entry_block g i]: the block of the [i]-th label of
    [routine.entries] (the primary entry is [i = 0]).
    @raise Invalid_argument unless [0 <= i < entry_count g]. *)

val succ_count : t -> int -> int

val pred_count : t -> int -> int
(** A block's in-degree, by a scan of every successor row: O(arcs). *)

val succ_start : t -> int -> int
(** The first successor slot of a block's row. *)

val succ_stop : t -> int -> int
(** One past the last successor slot of a block's row: hot loops read
    [succ_at g k] for [k] from [succ_start g b] to [succ_stop g b - 1]. *)

val succ_at : t -> int -> int
(** The successor block in an arc slot.
    @raise Invalid_argument unless [0 <= k < arc_count g]. *)

val succs : t -> int -> int array
(** A fresh copy of a block's successor row. *)

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
