(** The Figure-6 dataflow that labels flow-summary edges.

    The paper labels each flow-summary edge [E = (N_X, N_Y)] by dataflow
    over the CFG subgraph of the blocks on X-to-Y paths.  This solver runs
    once per {e sink} instead: over the sink block's {e backward region},
    the sink plus every block that reaches it without passing through
    another cut block.  For every region block [B] it computes

    - [MAY-USE_IN[B]]: registers used before defined on some path from the
      start of [B] to the sink;
    - [MAY-DEF_IN[B]]: registers defined on some such path;
    - [MUST-DEF_IN[B]]: registers defined on all such paths.

    The sink block's OUT sets are the boundary (all empty); meets are taken
    over the successors inside the region only.

    Every edge into the sink reads its label off this one solution at its
    source's location.  The labels are the per-edge ones: let [R] be the
    region and [F] the source's cut-free forward reach.  Every block of
    [R ∩ F] other than the sink is a non-cut block, so all its successors
    lie in [F]; the edge's subgraph [R ∩ F] is therefore closed under
    successors inside [R], and the fixpoint on [R] restricts exactly to the
    fixpoint on the subgraph. *)

open Spike_support
open Spike_cfg

type sets = { may_use : Regset.t; may_def : Regset.t; must_def : Regset.t }

val empty : sets
(** [{may_use = ∅; may_def = ∅; must_def = ∅}] — the boundary at the sink. *)

val top_must : sets
(** [{may_use = ∅; may_def = ∅; must_def = full}] — identity of the meet. *)

val join : sets -> sets -> sets
(** Pointwise path-merge: union for the MAY sets, intersection for
    MUST-DEF. *)

val apply_block : def:Regset.t -> ubd:Regset.t -> sets -> sets
(** Transfer function of a block: [IN] from [OUT]
    (Figure 6's first three equations). *)

type solution

type scratch = solution
(** Preallocated routine-sized working storage for {!solve}: the
    routine's predecessor rows, the region's slot order, the block-to-slot
    map, the search stack and the three IN-set lanes, generation-stamped
    so reuse across the sinks of one routine costs no per-solve reset or
    rehash.  One scratch serves one routine's sinks sequentially; give
    each domain of a parallel build its own. *)

val create_scratch : Cfg.t -> scratch
(** Scratch for a routine's CFG, with its predecessor rows built
    ({!Cfg.pred_rows}): O(blocks + arcs).  The CFG keeps no predecessor
    lane, so these rows live as long as the scratch. *)

val solve :
  ?scratch:scratch ->
  cfg:Cfg.t ->
  defuse:Defuse.t ->
  is_cut:(int -> bool) ->
  sink:int ->
  unit ->
  solution
(** [solve ~cfg ~defuse ~is_cut ~sink ()] collects the backward region of
    block [sink] — [sink] plus every predecessor chain of blocks [b] with
    [not (is_cut b)] — and runs the dataflow to fixpoint over it.

    One iterative depth-first search over predecessors collects the
    region and numbers it in postorder; the sweeps visit the blocks in
    the reverse of that order, the reverse postorder of the reversed
    region, so a block comes after every region successor it does not
    reach by a back arc of the search.  If no block reads a successor not
    yet visited in the sweep, the region is acyclic and the first sweep is
    the fixpoint; otherwise sweeps repeat until nothing changes.  The
    fixpoint reached from [top_must] is unique, so the order affects only
    the number of sweeps, never the sets.  A solve costs O(region blocks +
    their arcs) per sweep and, given a scratch, allocates nothing.

    When [scratch] is supplied the returned solution aliases it and is
    invalidated by the next [solve] on the same scratch — read every label
    off before solving the next sink.  Without [scratch] a fresh one is
    allocated.
    @raise Invalid_argument if [scratch] was created for another CFG. *)

val in_of : solution -> int -> sets
(** IN sets of a region block, built from the lanes on each call.
    @raise Invalid_argument if the block is not in the region. *)

val mem : solution -> int -> bool
(** Whether a block is in the region. *)
