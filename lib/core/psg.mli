(** The Program Summary Graph (paper §3.1).

    The PSG is a compact whole-program representation of control flow.  Its
    nodes are the program locations the interprocedural analysis cares
    about — routine entries and exits, call sites and their return points,
    plus branch nodes at multiway branches (§3.6) and pseudo-exits at
    indirect jumps with unknown targets (§3.5).  Flow-summary edges connect
    two nodes of the same routine when a control-flow path runs between
    their locations without crossing another node's location; each such
    edge is labelled with the MUST-DEF, MAY-DEF and MAY-USE sets of the
    paths it summarizes.  A call-return edge connects each call node to its
    return node; its label is filled during phase 1 with the callee's
    summary composed with the call instruction's own register effect.

    {b Layout.}  The graph is flat int and register-set lanes indexed by
    node, edge, call or routine id; it holds no record or variant per node
    or per call (DESIGN.md, "PSG lanes").

    - Nodes, edges and calls are laid out routine by routine:
      routine [r]'s node ids are [first_node.(r)] to
      [first_node.(r + 1) - 1], and likewise [first_edge] and
      [first_call].  A routine's entry nodes come first, in declaration
      order.
    - [kinds] packs each node's tag, routine and block into one int
      ({!Kind}).  An entry node's block field is its position in its
      routine's entry list; a return node is always the node after its
      call node, whose block is the call block.
    - Edges are numbered by source node: node [n]'s out-edges are
      [out_off.(n)] to [out_off.(n + 1) - 1], in discovery order, so an
      edge's source is the node whose row holds it.
    - Call [c]'s call node is [call_node.(c)], its return node the next
      node id, and its call-return edge the call node's only out-edge
      ([out_off.(call_node.(c))]).  Its targets are
      [targets.(target_off.(c)) .. targets.(target_off.(c + 1) - 1)]: a
      routine index, or [-1 - k] for external class [k] of
      [externals].  Resolved target lists are never empty, so an empty
      row flags an unresolved call (the calling-standard assumption).
    - [entry_nodes], [exit_nodes] and [unknown_exit_nodes] are CSR rows
      per routine behind [entries_off], [exits_off] and [unknown_off].

    The graph keeps forward lanes only.  Its reverse relations — each
    node's in-edges and each routine's callers — are read only while the
    phases and the warm planners run, so each run builds them as
    {!Readers} and drops them when it returns.

    Each phase owns one solution lane: {!Phase1} writes the node triples
    in [sets] (three per node) and the call-return labels in [labels];
    {!Phase2} writes liveness in [live] (one per node).  Neither writes
    the other's lane, so a converged PSG holds both phases' solutions
    side by side, and the warm-start artifacts ({!Warm}) are its rows. *)

open Spike_support
open Spike_isa
open Spike_ir

(** Packed node kinds: tag in bits 0–2, block (an entry node's entry
    position) in bits 3–32, routine above.  A local fragment's kinds
    ({!Psg_build.local}) carry routine 0. *)
module Kind : sig
  val entry : int
  val exit : int
  val call : int
  val return : int
  val branch : int
  val unknown_exit : int

  val count : int
  (** Number of tags; every tag is below it. *)

  val names : string array
  (** Indexed by tag: ["entry"], ["exit"], ["call"], ["return"],
      ["branch"], ["unknown_exit"]. *)

  val max_block : int
  val pack : tag:int -> block:int -> int
  val tag : int -> int
  val block : int -> int
  val routine : int -> int

  val in_routine : int -> int -> int
  (** [in_routine r k] is [k] moved to routine [r]. *)

  val local : int -> int
  (** The kind without its routine. *)
end

(** A decoded node kind, for printing and tests. *)
type node_kind =
  | Entry of { routine : int; label : string }
      (** routine entrance; location = before its first instruction *)
  | Exit of { routine : int; block : int }
      (** [ret]; location = after the return executes *)
  | Call of { routine : int; block : int }
      (** location = immediately before the call instruction *)
  | Return of { routine : int; call_block : int; block : int }
      (** the call's return point; location = start of [block] *)
  | Branch of { routine : int; block : int }
      (** multiway branch; location = after the branch dispatches *)
  | Unknown_exit of { routine : int; block : int }
      (** indirect jump with unknown targets; all registers live here *)

type external_class = {
  x_used : Regset.t;
  x_defined : Regset.t;
  x_killed : Regset.t;
}
(** A summary supplied from outside the analysed image — the paper's §3.5
    suggestion that the compiler or linker hand Spike exact information
    about code it cannot see (shared-library routines). *)

val no_externals : string -> external_class option
(** The default resolution environment: no supplied summaries, so every
    call target outside the image gets the calling-standard assumption.
    Every default in the analysis and the store is this one closure, so
    [==] tells two runs under the default environment apart from runs
    under a supplied table. *)

(** A decoded call target. *)
type call_target =
  | Target_routine of int  (** a routine of the program, by index *)
  | Target_external of external_class
      (** code outside the image with a supplied summary *)

type t = {
  program : Program.t;
  kinds : int array;  (** node id [->] packed kind ({!Kind}) *)
  sets : Regset.t array;
      (** phase 1's lane: node id [n] [->] MAY-USE, MAY-DEF, MUST-DEF at
          [3n], [3n + 1], [3n + 2] *)
  live : Regset.t array;  (** phase 2's lane: node id [->] liveness *)
  dst : int array;  (** edge id [->] destination node id *)
  labels : Regset.t array;
      (** edge id [e] [->] MAY-USE, MAY-DEF, MUST-DEF at [3e], [3e + 1],
          [3e + 2]; flow labels are fixed at build time, call-return
          labels are written by phase 1 *)
  out_off : int array;
      (** node id [->] its first out-edge id; length [nodes + 1] *)
  call_node : int array;  (** call index [->] call node id, ascending *)
  call_def : Regset.t array;  (** call [->] the call instruction's definitions *)
  call_use : Regset.t array;  (** call [->] the call instruction's uses *)
  callee : Insn.callee array;  (** call [->] the call instruction's callee *)
  target_off : int array;  (** call [->] start of its row in [targets] *)
  targets : int array;  (** routine index, or [-1 - k] for [externals.(k)] *)
  externals : external_class array;
  entries_off : int array;
  entry_nodes : int array;
      (** routine [->] entry node ids, in declaration order (first =
          primary entry) *)
  exits_off : int array;
  exit_nodes : int array;  (** routine [->] exit node ids *)
  unknown_off : int array;
  unknown_exit_nodes : int array;
  first_node : int array;  (** routine [->] its first node id; length [routines + 1] *)
  first_edge : int array;  (** likewise its edge ids (the edges its nodes source) *)
  first_call : int array;  (** likewise its call indices *)
  entry_filter : Regset.t array;
      (** routine index [->] callee-saved registers saved and restored by
          the routine, removed from its exported summary (§3.4) *)
}

val node_count : t -> int
val edge_count : t -> int
val call_count : t -> int
val flow_edge_count : t -> int

val tag : t -> int -> int
(** A node's {!Kind} tag. *)

val routine_of_node : t -> int -> int

val block : t -> int -> int
(** A node's block; an entry node's entry position. *)

val return_node : t -> int -> int
(** [return_node psg c] is call [c]'s return node: its call node + 1. *)

val cr_edge : t -> int -> int
(** Call [c]'s call-return edge: its call node's only out-edge. *)

val call_of_node : t -> int -> int
(** [call_of_node psg n] is the call whose call node is [n] (the inverse
    of [psg.call_node]), by binary search over its routine's calls.  [n]
    must be a call node. *)

val resolved : t -> int -> bool
(** Whether call [c]'s targets are known (its target row is not empty). *)

val primary_entry_node : t -> int -> int
(** [primary_entry_node psg r] is the entry node targeted by calls to
    routine [r]. *)

val kind : t -> int -> node_kind
(** Node [n]'s kind, decoded: an entry node's label is read off its
    routine, a return node's call block off the node before it. *)

val node_routine : node_kind -> int

val call_targets : t -> int -> call_target list option
(** Call [c]'s targets, decoded; [None] = unresolved. *)

val iter_out_edges : t -> int -> (int -> unit) -> unit

val entry_node_list : t -> int -> int list
val exit_node_list : t -> int -> int list
val unknown_exit_node_list : t -> int -> int list

val iter_routine_targets : t -> (int -> int -> unit) -> unit
(** [iter_routine_targets psg f] calls [f c r] for every call [c] (in
    call order) and every routine [r] of the program it may target, in
    target order; externals and unresolved calls are skipped. *)

val routine_callees : t -> int -> int list
(** The routines that calls in routine [r] may target, sorted, without
    duplicates. *)

val call_graph : t -> int array * int array
(** The resolved routine call graph in {!Scc.csr} form [(off, adj)]: row
    [r] lists the distinct routines that calls in routine [r] may target
    (externals and unresolved indirect calls excluded), sorted ascending.
    Rows are deduplicated across call sites. *)

val call_scc : t -> Scc.t
(** SCC decomposition of {!call_graph} — the schedule skeleton for both
    interprocedural phases.  Computed iteratively; safe on call chains of
    any depth. *)

val pp_node : t -> Format.formatter -> int -> unit
(** A node by id, with its phase-1 sets and its liveness. *)

val pp : Format.formatter -> t -> unit
