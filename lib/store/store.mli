(** The persistent summary store: on-disk per-routine analysis artifacts
    and the warm-start plans built from them.

    A store directory holds one file, [spike.store], written atomically
    (temp file + rename).  It records, per routine: a content
    {!Fingerprint}, the routine's front-end artifacts (CFG, DEF/UBD,
    callee-saved filter, PSG local fragment) and the converged phase-1 and
    phase-2 solutions of the run that wrote it, plus the names of the
    internal routines it called — the ingredient for
    {!Spike_core.Warm.plan.exit_seeds} when a caller is edited away.

    {b Robustness first.}  [load] never raises on bad input: a missing
    file is a plain cold start, and a truncated, bit-flipped,
    wrong-version, wrong-magic or wrong-configuration file is detected
    (magic / version / config-key header checks, a whole-payload
    checksum, and bounds-checked decoding via {!Codec}), logged to
    [stderr], counted on the [store.degradations] counter, and degraded
    to an all-cold plan.  A single undecodable entry in an otherwise
    healthy file — say, a register-set word with bit 63 set — dirties only
    its own routine; it is logged and counted on [store.degradations]
    too, but [degraded] stays [None].

    Cross-run index drift is handled by storing routine {e names}:
    call-target indices inside cached fragments are remapped to the
    current program's indices at load. *)

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
(** Persist the artifacts captured by an [Analysis.run ~capture:true].
    Creates [dir] if needed; writes to a temporary file and renames, so a
    crash mid-save leaves any previous store intact.  Configuration and
    the resolution environment are taken from the analysis record itself.
    @raise Invalid_argument if the analysis was run without [~capture]. *)

(** {2 In-memory sessions}

    The disk path decodes the whole artifact graph back into boxed
    records; a resident driver (editor daemon, watch mode) that keeps the
    previous {!Analysis.t} alive can skip both the file and the decode. *)

type session
(** Retained artifacts of one analysis run, keyed by routine name. *)

val retain : Analysis.t -> session
(** Package the artifacts captured by an [Analysis.run ~capture:true],
    fingerprinting every routine once.  The session never mutates and is
    never mutated by later warm runs, so one session can seed any number
    of [replan]s.
    @raise Invalid_argument if the analysis was run without [~capture]. *)

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
    rest.  A session retained under a different analysis configuration
    degrades to an all-cold plan, mirroring the file-level config check. *)
