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
    return node; its label starts empty and is filled during phase 1 with
    the callee's summary composed with the call instruction's own register
    effect.

    The graph is stored as flat lanes indexed by node or edge id rather
    than as records: [kinds] per node; [src]/[dst] and [labels] (three
    sets per edge, MAY-USE, MAY-DEF, MUST-DEF) per edge; and CSR
    adjacency — node [n]'s out-edge ids are
    [out_adj.(out_off.(n)) .. out_adj.(out_off.(n + 1) - 1)], ascending,
    and likewise [in_off]/[in_adj] for in-edges.  Each phase owns one
    solution lane: {!Phase1} writes the node triples in [sets] (three per
    node) and the call-return labels in [labels]; {!Phase2} writes
    liveness in [live] (one per node).  Neither writes the other's lane,
    so a converged PSG holds both phases' solutions side by side and the
    warm-start caches ({!Warm}) are slices of these arrays.  An edge is a
    call-return edge exactly when its source is a call node: a call
    node's only out-edge is its call-return edge. *)

open Spike_support
open Spike_isa
open Spike_ir

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

type call_target =
  | Target_routine of int  (** a routine of the program, by index *)
  | Target_external of external_class
      (** code outside the image with a supplied summary *)

type call_info = {
  call_node : int;
  return_node : int;
  cr_edge : int;  (** the call-return edge's id *)
  callee : Insn.callee;
  targets : call_target list option;
      (** what the call may reach; [None] = unknown, analysed under the
          calling-standard assumption *)
  call_def : Regset.t;  (** the call instruction's own definitions *)
  call_use : Regset.t;  (** the call instruction's own uses *)
}

type t = {
  program : Program.t;
  kinds : node_kind array;  (** node id [->] kind *)
  sets : Regset.t array;
      (** phase 1's lane: node id [n] [->] MAY-USE, MAY-DEF, MUST-DEF at
          [3n], [3n + 1], [3n + 2] *)
  live : Regset.t array;  (** phase 2's lane: node id [->] liveness *)
  src : int array;  (** edge id [->] source node id *)
  dst : int array;  (** edge id [->] destination node id *)
  labels : Regset.t array;
      (** edge id [e] [->] MAY-USE, MAY-DEF, MUST-DEF at [3e], [3e + 1],
          [3e + 2]; flow labels are fixed at build time, call-return
          labels are written by phase 1 *)
  out_off : int array;  (** node id [->] start of its row in [out_adj] *)
  out_adj : int array;  (** out-edge ids, grouped by source node *)
  in_off : int array;
  in_adj : int array;  (** in-edge ids, grouped by destination node *)
  calls : call_info array;
  callers_of : int list array;
      (** routine index [->] indices into [calls] of sites that may target
          it *)
  entry_nodes : int list array;
      (** routine index [->] entry node ids, in declaration order (head =
          primary entry) *)
  exit_nodes : int list array;  (** routine index [->] exit node ids *)
  unknown_exit_nodes : int list array;
  entry_filter : Regset.t array;
      (** routine index [->] callee-saved registers saved and restored by
          the routine, removed from its exported summary (§3.4) *)
}

val node_count : t -> int
val edge_count : t -> int
val flow_edge_count : t -> int

val primary_entry_node : t -> int -> int
(** [primary_entry_node psg r] is the entry node targeted by calls to
    routine [r]. *)

val node_routine : node_kind -> int

type offsets = {
  first_node : int array;
      (** routine [r]'s node ids are [first_node.(r)] to
          [first_node.(r + 1) - 1] *)
  first_edge : int array;  (** likewise its edge ids (the edges its nodes source) *)
  first_call : int array;  (** likewise its indices into [calls] *)
}
(** Where each routine's rows lie: {!Psg_build.stitch} lays nodes, edges
    and calls out routine by routine, in routine order.  Each array has
    length [routines + 1]. *)

val offsets : t -> offsets
(** One pass over the node, edge and call tables.  O(nodes + edges +
    calls). *)

val kind_index : node_kind -> int
(** Entry 0, exit 1, call 2, return 3, branch 4, unknown exit 5. *)

val kind_names : string array
(** Indexed by {!kind_index}: ["entry"], ["exit"], ["call"], ["return"],
    ["branch"], ["unknown_exit"]. *)

val iter_routine_targets : t -> (call_info -> int -> unit) -> unit
(** [iter_routine_targets psg f] calls [f info r] for every call site
    [info] (in [calls] order) and every routine [r] of the program it may
    target, in [targets] order; externals and unresolved calls are
    skipped. *)

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
