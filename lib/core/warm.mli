(** Warm-start re-analysis: per-routine cached artifacts and the
    invalidation cones that let {!Analysis.run} re-converge only what an
    edit can actually influence.

    A {!routine_art} bundles everything the front-end computes for one
    routine — its CFG, DEF/UBD sets, §3.4 callee-saved filter and PSG
    local fragment — together with the converged phase-1 and phase-2 node
    solutions of the run that produced it.  The persistent store
    ({!Spike_store}) keys artifacts by content fingerprint; this module is
    purely in-memory and fingerprint-agnostic.

    Reuse happens at two levels.  The fingerprint-clean routines in
    [plan.arts] reuse {e everything}, front-end artifacts included.  A
    fingerprint-stale routine rebuilds its front end, but if the rebuild
    yields the identical equation system — same local fragment, filter
    and exit-seed flags as its [plan.donors] entry — the cached
    {e solutions} still are its exact least fixpoint and {!solutions}
    lifts them too.  Only the remaining routines are dirty.

    {b Correctness.}  Both phases compute the unique least fixpoint of a
    monotone system by restarting dirty nodes from the lattice bottom
    while restoring converged values elsewhere.  That is bit-identical to
    a cold run only if the set of restarted nodes — the {e invalidation
    cone} — is closed under each phase's influence relation: whatever can
    read a dirty value must itself re-converge (see {!Phase1.warm} and
    {!Phase2.warm} for the per-phase contracts the planners establish).
    Closure is computed transitively; a frozen complement may not sit
    between two dirty regions, because a cycle through stale frozen
    values can sustain a fixpoint above the least one. *)

open Spike_support
open Spike_ir
open Spike_cfg

(** Converged solutions are kept {e packed}: flat arrays of register
    sets, three consecutive sets per (MAY-USE, MAY-DEF, MUST-DEF) triple
    and one per single set.  A {!Regset.t} is an immediate int, so these
    are one word per set and the snapshot, the store round-trip and the
    warm restore are straight word copies — no allocation, no write
    barriers. *)

type routine_art = {
  a_cfg : Cfg.t;
  a_defuse : Defuse.t;
  a_filter : Regset.t;  (** §3.4 saved-and-restored callee-saved set *)
  a_local : Psg_build.local;
  a_phase1 : Regset.t array;
      (** local node id [->] converged phase-1 triple, packed 3 sets *)
  a_cr : Regset.t array;
      (** local call index [->] converged call-return label, packed 3 sets *)
  a_phase2 : Regset.t array;  (** local node id [->] converged liveness *)
}

type donor = {
  d_art : routine_art;  (** remapped to {e current} routine indices *)
  d_callees : string list;
      (** internal routines the cached fragment's calls could target —
          re-seeded as exits if the lift fails *)
  d_exported : bool;  (** the routine's exported flag at capture time *)
  d_is_main : bool;  (** it was the program's main routine at capture time *)
}
(** A fingerprint-stale artifact kept around as a lift candidate: its
    front end must be rebuilt, but {!solutions} may still prove the
    cached solutions exact. *)

type plan = {
  arts : routine_art option array;
      (** current routine index [->] artifact to reuse; [None] = rebuild *)
  donors : donor option array;
      (** lift candidates for rebuilt routines; [None] where [arts] is
          [Some _] *)
  exit_seeds : bool array;
      (** routine [->] its exit nodes must re-seed in phase 2 even if the
          routine itself is clean — set when a (former) caller was edited
          or deleted, so a return-link contribution may have disappeared *)
}

val cold : Program.t -> plan
(** The all-dirty plan: every routine rebuilt, nothing restored.  Running
    {!Analysis.run} with it is bit-identical to a cold run. *)

val reused : plan -> int
(** Number of routines whose front-end artifacts the plan reuses. *)

val callee_names : Program.t -> Psg_build.local -> string list
(** The internal routines a fragment's calls may target, by name (sorted,
    without duplicates), with routine indices read in [program] — a
    donor's {!donor.d_callees}. *)

val of_previous :
  old_program:Program.t -> arts:routine_art array -> Program.t -> plan
(** The plan for re-analysing a transformed [program] from the artifacts
    [arts] captured on [old_program]: a routine physically equal ([==])
    to [old_program]'s routine at the same index reuses its artifact, and
    every other routine becomes a lift donor with the old artifact and
    exported/main flags.  The key is sound only for transformations that
    never mutate a routine in place and return each untouched routine
    physically shared, as the optimizer's passes do.  When the routine
    count, the name at some index or [main] differ, call resolution may
    differ too, and the result is {!cold}. *)

val solutions :
  plan ->
  program:Program.t ->
  locals:Psg_build.local array ->
  filters:Regset.t array ->
  routine_art option array * bool array
(** Decide, after the front-end rebuild, which routines' cached
    {e solutions} are exact: the plan's clean artifacts, plus every donor
    whose rebuilt local fragment, filter, exported flag and main-ness
    are unchanged — an identical equation system has an identical least
    fixpoint.  Returns the solution-clean artifacts (the planners' input)
    and the final exit-seed set: a donor that fails the lift adds its
    cached callees, whose exits may have lost a return-link
    contribution.  [locals] and [filters] are the post-rebuild arrays for
    {e all} routines. *)

val phase1_plan :
  Psg.t ->
  sols:routine_art option array ->
  node_offset:int array ->
  call_offset:int array ->
  Phase1.warm
(** The phase-1 invalidation cone and restores for a stitched PSG, given
    {!solutions}' verdict: the closure of the solution-dirty routines'
    nodes under reversed flow/call-return edges, widened to the call
    nodes of every caller of a routine whose primary entry enters the
    cone (the §3.2 summary import). *)

val phase2_plan :
  Psg.t ->
  sols:routine_art option array ->
  exit_seeds:bool array ->
  node_offset:int array ->
  call_offset:int array ->
  p1_cr:Regset.t array ->
  Phase2.warm
(** The phase-2 cone and restore.  Seeds: the solution-dirty routines'
    nodes, the call nodes whose just-converged call-return labels
    [p1_cr] differ from the cached ones, and the exit nodes of
    [exit_seeds] routines; closed under reversed edges plus the
    return-to-exit links.  Call after phase 1 (and after
    {!snapshot_phase1}). *)

val snapshot_phase1 : Psg.t -> Regset.t array * Regset.t array
(** Packed copies of the per-node solutions (3 sets per node) and
    per-call call-return edge labels (3 sets per call); take it between
    the phases, before phase 2 overwrites MAY-USE. *)

val snapshot_live : Psg.t -> Regset.t array
(** Per-node MAY-USE copies (one set per node); take it after
    phase 2. *)

val capture :
  cfgs:Cfg.t array ->
  defuses:Defuse.t array ->
  filters:Regset.t array ->
  locals:Psg_build.local array ->
  p1_nodes:Regset.t array ->
  p1_cr:Regset.t array ->
  p2_live:Regset.t array ->
  node_offset:int array ->
  call_offset:int array ->
  routine_art array
(** Slice the whole-program arrays into per-routine artifacts — the
    snapshot a store persists for the next run. *)
