(** PSG construction (paper §3.1 and §3.6).

    For each routine the builder creates an entry node per entrance, an
    exit node per [ret], a call node and a return node per call site, a
    pseudo-exit per unknown-target indirect jump, and — when
    [branch_nodes] is on — a branch node per multiway branch.  Call, exit,
    unknown-exit and branch locations are {e cuts}: no flow-summary edge
    crosses them.  A flow-summary edge is produced from source [S] (entry,
    return or branch node) to sink [T] (call, exit, unknown-exit or branch
    node) whenever a control-flow path connects their locations without
    crossing another cut; its label is the Figure-6 dataflow over the
    blocks on such paths, read off one {!Edge_dataflow} solve per sink
    block that all of the sink's edges share.

    With [branch_nodes = false] multiway branches are ordinary control
    flow, reproducing the quadratic edge blow-up measured in Table 4.

    Construction is split into a per-routine {e local pass} (node/edge
    discovery and edge labelling — parallelized over a {!Spike_support.Pool}
    when one is supplied) and a sequential {e stitch pass} that assigns
    global ids by per-routine prefix sums and wires the cross-routine
    caller lists.  The local pass numbers everything in the same
    intra-routine order as a sequential build, so the PSG is bit-identical
    for every parallelism degree. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg

(** {2 Per-routine local artifacts}

    The local pass emits everything the stitch pass needs, under
    routine-local node/edge/call ids, in the PSG's own flat layout so
    that stitching a fragment in is a blit.  The records are exposed so
    the persistent summary store ({!Spike_store}) can serialize a
    routine's fragment and splice it back into a later build unchanged. *)

type local_call = {
  lc_call_node : int;  (** routine-local node id *)
  lc_return_node : int;
  lc_cr_edge : int;  (** routine-local edge id *)
  lc_callee : Insn.callee;
  lc_targets : Psg.call_target list option;
  lc_call_def : Regset.t;
  lc_call_use : Regset.t;
}

type local = {
  l_kinds : Psg.node_kind array;  (** routine-local node id [->] kind *)
  l_src : int array;  (** routine-local edge id [->] local source node id *)
  l_dst : int array;
  l_labels : Regset.t array;
      (** three sets per edge, as {!Psg.t.labels}; a call-return edge's
          label is the phase-1 starting value [(∅, ∅, full)] *)
  l_calls : local_call array;
  l_entry : int list;  (** routine-local node ids, declaration order *)
  l_exit : int list;
  l_unknown : int list;
}

val resolver :
  externals:(string -> Psg.external_class option) ->
  Program.t ->
  Insn.callee ->
  Psg.call_target list option
(** The §3.5 target resolution [build] uses: a direct call resolves to a
    routine of the image, to external code with a supplied summary, or to
    [None] (the calling-standard assumption); an indirect call resolves
    only when every name of its target list does. *)

val local_pass :
  branch_nodes:bool ->
  resolve_targets:(Insn.callee -> Psg.call_target list option) ->
  int ->
  Cfg.t ->
  Defuse.t ->
  local
(** [local_pass ~branch_nodes ~resolve_targets r cfg defuse] runs node and
    edge discovery plus the Figure-6 edge labelling for routine [r] alone.
    Safe to call concurrently for distinct routines. *)

val stitch :
  ?topology:Psg.t -> entry_filters:Regset.t array -> Program.t -> local array -> Psg.t
(** Concatenate per-routine locals (in routine order) into the global PSG:
    ids are offset by prefix sums, caller lists are wired.  The result
    shares no mutable array with [locals], so running the phases on it
    never alters a fragment.  Deterministic in its inputs — splicing a
    cached [local] for an unchanged routine yields a graph bit-identical
    to rebuilding it.

    [topology] is an earlier stitch whose routine at every index had a
    fragment of the same topology ({!same_topology}) as [locals] at that
    index.  The result then shares its shape lanes — [src], [dst], the
    CSR adjacency, [callers_of] and the entry, exit and unknown-exit
    lists, none of which is written after a stitch — instead of
    rebuilding equal ones. *)

val same_topology : local -> local -> bool
(** Whether two fragments have the same shape: node constructors and
    routines (block ids may differ), edge endpoints, call and return
    nodes, call-return edges and call targets, and the entry, exit and
    unknown-exit lists.  That is all {!Sched.make} reads of a PSG, so a
    PSG stitched from fragments each of the same topology as the
    previous one's has the previous one's schedule.  O(fragment size). *)

val fragment : Psg.t -> Psg.offsets -> int -> local
(** [fragment psg (Psg.offsets psg) r] is the inverse of {!stitch} for
    routine [r]: its nodes, edges and calls with the routine's offsets
    subtracted, its call-return labels reset to the local pass's start
    value [(∅, ∅, full)] (phase 1 overwrites them in [psg]).  On a PSG
    built from [local_pass] output it equals that routine's [local_pass]
    fragment structurally.  The arrays are fresh; kinds, callees and
    target lists are shared.  O(fragment size): callers slice every
    routine and compute the offsets once per PSG. *)

val node_offsets : local array -> int array
(** Prefix sums of per-routine node counts, length [routines + 1]:
    routine [r]'s nodes occupy global ids
    [[offsets.(r), offsets.(r + 1))] after {!stitch}. *)

val call_offsets : local array -> int array
(** Likewise for the global call-site table. *)

val build :
  ?branch_nodes:bool ->
  ?entry_filters:Regset.t array ->
  ?externals:(string -> Psg.external_class option) ->
  ?pool:Pool.t ->
  Program.t ->
  Cfg.t array ->
  Defuse.t array ->
  Psg.t
(** [build program cfgs defuses] constructs the whole-program PSG.
    [branch_nodes] defaults to [true].  [entry_filters] (one set per
    routine, the §3.4 callee-saved filter) defaults to
    {!Callee_saved.saved_and_restored} on every routine.  [externals]
    supplies §3.5 compiler/linker summaries for call targets outside the
    image; names it does not cover fall back to the calling-standard
    assumption — with a pool of more than one domain it is called
    concurrently and must be thread-safe (pure lookups are).  [pool]
    parallelizes the per-routine local pass; omitting it (or passing a
    one-domain pool) runs sequentially. *)
