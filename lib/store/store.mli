(** The persistent summary store: on-disk per-routine analysis artifacts
    and the warm-start plans built from them.

    A store directory holds one file, [spike.store], written atomically
    (temp file + rename).  It records, per routine: a content
    {!Fingerprint}, what the phases read of the routine's front end
    (callee-saved filter, PSG local fragment) and the converged phase-1
    and phase-2 solutions of the run that wrote it, plus the names of the
    internal routines it called — the ingredient for
    {!Spike_core.Warm.plan.exit_seeds} when a caller is edited away, and
    the table its call targets index.  CFGs and DEF/UBD sets are not
    stored: a warm run never reads a clean routine's, and
    {!Spike_core.Analysis.cfg} rebuilds one if a consumer asks.

    Format 5 writes each entry body as runs of ints and register sets
    straight from the routine's rows of the PSG's lanes
    ({!Spike_core.Psg.t}): no entry labels, no callees, no target names
    and no per-node or per-call record (DESIGN.md, "What is cached").

    {b Robustness first.}  [load] never raises on bad input: a missing
    file is a plain cold start, and a truncated, bit-flipped,
    wrong-version, wrong-magic or wrong-configuration file is detected
    (magic / version / config-key header checks, a whole-payload
    checksum, and bounds-checked decoding via {!Codec}), logged to
    [stderr], counted on the [store.degradations] counter, and degraded
    to an all-cold plan.  A single undecodable entry in an otherwise
    healthy file — say, a register-set word with bit 63 set — dirties only
    its own routine; it is logged and counted on [store.degradations]
    too, whether the entry's fingerprint is fresh or stale, but
    [degraded] stays [None].  Decoding range-checks every node id, kind
    tag, target index and entry position, and checks that every call
    node is followed by its return node through its only out-edge: an
    entry that fails is undecodable.  So is a fresh entry whose node
    kinds name a block at or past the routine's instruction count, or
    whose entry or call count differs from the routine's.  A stale entry
    whose calls name a routine the edit deleted, or that no longer fits
    the edited routine's blocks or entries, is not corrupt: it is dropped
    silently.  {!replan} plans from a resident {!session} by the same
    rules.

    Cross-run index drift is handled by storing routine {e names}: a
    call target is an index into its entry's callee names, each resolved
    to the current program's index once per entry at load. *)

open Spike_ir
open Spike_core

val file_name : string
(** ["spike.store"], under the store directory. *)

type load_result = {
  plan : Warm.plan;
  hits : int;  (** routines whose cached artifacts will be reused *)
  misses : int;  (** routines with no stored entry *)
  invalidated : int;
      (** routines whose stored entry exists but is stale (fingerprint
          mismatch) or undecodable *)
  degraded : string option;
      (** [Some reason] when a store file was present but unusable as a
          whole and the plan fell back to all-cold *)
}

val load :
  dir:string ->
  ?branch_nodes:bool ->
  ?externals:(string -> Psg.external_class option) ->
  ?callee_saved_filter:bool ->
  Program.t ->
  load_result
(** Build a warm plan for [Program.t] from [dir].  The configuration
    arguments (defaults matching {!Analysis.run}) must be the ones the
    upcoming analysis will run with; a store written under a different
    configuration is rejected wholesale.  Instrumented with the
    [store.load] span and [store.load.hits] / [store.load.misses] /
    [store.load.invalidations] / [store.degradations] counters. *)

val save : dir:string -> Analysis.t -> unit
(** Persist every routine's artifact, written straight from its rows of
    the analysis's converged PSG: any analysis can be saved, a
    {!Spike_core.Analysis.rerun} result included.  Creates [dir] if
    needed; writes to a temporary file and renames, so a
    crash mid-save leaves any previous store intact.  Configuration and
    the resolution environment are taken from the analysis record itself.
    A routine's fingerprint is the one the last {!load} or {!replan}
    computed when the analysis ran on that same program ([==]) under the
    same [externals] ([==]) and the routine at that index is still the
    one fingerprinted; every other routine is fingerprinted afresh, which
    the [store.fingerprints] counter counts (with the planner's own).
    @raise Sys_error if [dir] cannot be created or the file cannot be
    written (say, [dir] or one of its parents is a regular file); a temp
    file it created is removed first. *)

(** {2 In-memory sessions}

    The disk path decodes every entry's fragment and solutions; a
    resident process (editor daemon, watch mode) that keeps the previous
    {!Analysis.t} alive can skip both the file and the decode. *)

type session
(** Retained artifacts of one analysis run, keyed by routine name. *)

val retain : Analysis.t -> session
(** Package every routine's artifact as a reference to its rows of the
    analysis's converged PSG ({!Spike_core.Warm.Rows}), fingerprinting
    every routine (reusing the planner's digests as {!save} does) and
    recording its exported and main flags once.  A replan whose edit
    moved a routine's call targets to other indices gets a remapped copy
    instead.  No warm run writes the rows it reads — the stitch and the
    warm restore copy them into the new PSG — so one session can seed any
    number of [replan]s. *)

val replan :
  session ->
  ?branch_nodes:bool ->
  ?externals:(string -> Psg.external_class option) ->
  ?callee_saved_filter:bool ->
  Program.t ->
  load_result
(** [load] without the disk: fingerprint the (edited) program, reuse the
    session's artifacts for unchanged routines — remapping routine
    indices by name, as the disk path does — and plan cones for the
    rest — one planner serves both paths.  A session retained under a
    different analysis configuration degrades to an all-cold plan,
    mirroring the file-level config check. *)
