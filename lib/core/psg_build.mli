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
    node lists.  The local pass numbers everything in an order fixed by
    the routine's own CFG, so the PSG is bit-identical for every
    parallelism degree.  The reverse relations are not stitched: each run
    builds them as {!Readers}. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg

(** {2 Per-routine local artifacts}

    The local pass emits everything the stitch pass needs, under
    routine-local node, edge and call ids, in the PSG's own lane layout
    ({!Psg.t}) so that stitching a fragment in is a blit.  The record is
    exposed so the persistent summary store ({!Spike_store}) can write a
    routine's fragment and splice it back into a later build unchanged. *)

type local = {
  l_kinds : int array;
      (** routine-local node id [->] packed kind ({!Psg.Kind}), routine 0 *)
  l_src : int array;  (** routine-local edge id [->] local source node id, ascending *)
  l_dst : int array;
  l_labels : Regset.t array;
      (** three sets per edge, as {!Psg.t.labels}; a call-return edge's
          label is the phase-1 starting value [(∅, ∅, full)] *)
  l_call_def : Regset.t array;  (** local call index [->] as {!Psg.t.call_def} *)
  l_call_use : Regset.t array;
  l_callee : Insn.callee array;  (** local call index [->] its instruction's callee *)
  l_target_off : int array;  (** local call index [->] row start; length calls + 1 *)
  l_targets : int array;
      (** a routine index, or [-1 - k] for [l_externals.(k)] *)
  l_externals : Psg.external_class array;
      (** the fragment's own external classes, each once *)
}
(** A fragment's calls are its call-tagged nodes in node order, and its
    routine's call instructions in instruction order.  Its entry, exit
    and unknown-exit nodes are read off the kinds.  Its edges are
    numbered by source, so [l_src] is ascending; a stitched PSG keeps
    only the out-edge offsets this implies. *)

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
    The fragment does not depend on [r]: its kinds carry routine 0, and
    the stitch places it.  Edges are numbered by source node, each
    node's in discovery order.  Safe to call concurrently for distinct
    routines. *)

(** Where a routine's rows come from: a fragment, or routine [r]'s rows
    of a converged PSG — a warm rerun's reused routine, copied once, into
    the new PSG. *)
type part = Local of local | Rows of Psg.t * int

val stitch_parts :
  ?topology:Psg.t -> entry_filters:Regset.t array -> Program.t -> part array -> Psg.t
(** Concatenate per-routine parts (in routine order) into the global PSG:
    ids are offset by prefix sums, kinds are placed in their routine, the
    out-edge offsets are the prefix sum of the parts' out-degrees, and
    the call, entry, exit and unknown-exit rows are read off the kinds.
    The result shares no mutable array with [parts], so running the
    phases on it never alters a fragment or an earlier PSG.  Its call-return labels hold the local pass's start value, as a
    fragment's do; phase 1 initializes them.  Deterministic in its
    inputs — a part of rows of an earlier PSG stitches exactly like the
    {!fragment} of those rows.

    [topology] is an earlier stitch whose routine at every index had a
    part of the same topology ({!same_topology}) as [parts] at that
    index.  The result then shares its shape lanes — edge destinations
    and offsets, call and target rows, the external table, the entry,
    exit and unknown-exit rows and the routine offsets, none of which is
    written after a stitch — instead of rebuilding equal ones. *)

val stitch :
  ?topology:Psg.t -> entry_filters:Regset.t array -> Program.t -> local array -> Psg.t
(** {!stitch_parts} of fragments. *)

val same_topology : local -> local -> bool
(** Whether two fragments have the same shape: node tags (block ids may
    differ), edge endpoints, and call targets.  That is all {!Sched.make}
    reads of a PSG, so a PSG stitched from fragments each of the same
    topology as the previous one's has the previous one's schedule.
    O(fragment size). *)

val fragment : Psg.t -> int -> local
(** [fragment psg r] is the inverse of {!stitch} for routine [r]: its
    rows with the offsets subtracted, its external classes re-interned,
    its call-return labels reset to the local pass's start value
    [(∅, ∅, full)] (phase 1 overwrites them in [psg]).  On a PSG built
    from [local_pass] output it equals that routine's [local_pass]
    fragment structurally.  The arrays are fresh; external classes are
    shared.  O(fragment size). *)

val interner : ('a -> 'a -> bool) -> ('a -> int) * (unit -> 'a list)
(** [interner equal] is [(index, seen)]: [index x] is [x]'s position among
    the distinct values (by [equal]) indexed so far, first use first, and
    [seen ()] lists them in that order.  Linear per call: for the short
    tables of external classes a fragment or a store entry keeps. *)

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
