(** Warm-start re-analysis: per-routine cached artifacts and the
    invalidation cones that let {!Analysis.run} re-converge only what an
    edit can actually influence.

    A {!routine_art} bundles what the phases read of one routine's front
    end — its §3.4 callee-saved filter and PSG local fragment — together
    with the converged phase-1 and phase-2 node solutions of the run that
    produced it.  The CFG and DEF/UBD sets are front-end intermediates, as in
    the paper: PSG construction reads them and the phases never do, so an
    artifact does not carry them ({!Analysis.cfg} rebuilds them on
    demand).  An artifact has the PSG's own lane layout: either its own
    arrays ({!Slice}) or a reference to its routine's rows of a converged
    PSG ({!Rows}), which the stitch and the warm restore copy once, into
    the new PSG.  The persistent store ({!Spike_store}) keys artifacts by
    content fingerprint; this module is purely in-memory and
    fingerprint-agnostic.

    Reuse happens at two levels.  The fingerprint-clean routines in
    [plan.arts] reuse {e everything}: no CFG is built for them.  A
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
    read a dirty value must itself re-converge (see {!Sched.run} for the
    contract the planners establish, and {!Phase1.influence} and
    {!Phase2.influence} for the relations they close under).
    Closure is computed transitively; a frozen complement may not sit
    between two dirty regions, because a cycle through stale frozen
    values can sustain a fixpoint above the least one. *)

open Spike_support
open Spike_ir

(** Converged solutions are kept in the PSG's own layout: a routine's
    rows of {!Psg.t.sets} (three sets per node), of {!Psg.t.live} (one
    per node) and its call-return labels (three sets per call).  A
    {!Regset.t} is an immediate int, so the store round-trip and the
    warm restore are straight word copies — no allocation, no write
    barriers. *)

type slice = {
  a_filter : Regset.t;  (** §3.4 saved-and-restored callee-saved set *)
  a_local : Psg_build.local;
  a_phase1 : Regset.t array;
      (** local node id [->] converged phase-1 triple, packed 3 sets *)
  a_cr : Regset.t array;
      (** local call index [->] converged call-return label, packed 3 sets *)
  a_phase2 : Regset.t array;  (** local node id [->] converged liveness *)
}
(** A routine's artifact as its own arrays: decoded from a store, or
    copied out of a converged PSG. *)

type routine_art =
  | Slice of slice
  | Rows of Psg.t * int
      (** routine [r]'s rows of a converged PSG, referenced in place; the
          stitch and the warm restore copy them once, into the new PSG *)

val filter : routine_art -> Regset.t
(** The artifact's §3.4 filter. *)

val part : routine_art -> Psg_build.part
(** What the stitch reads of the artifact. *)

val to_slice : routine_art -> slice

type donor = {
  d_art : slice;  (** remapped to {e current} routine indices *)
  d_callees : string list;
      (** internal routines the cached fragment's calls could target —
          re-seeded as exits if the lift fails *)
  d_exported : bool;  (** the routine's exported flag when cached *)
  d_is_main : bool;  (** it was the program's main routine when cached *)
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

val names : Program.t -> int list -> string list
(** Routine indices as names of [program], sorted, without duplicates: a
    routine's {!Psg.routine_callees} as its donor's {!donor.d_callees}. *)

val slice : Psg.t -> int -> slice
(** [slice psg r] copies routine [r]'s artifact out of a converged PSG:
    its fragment ({!Psg_build.fragment}), its filter
    ([psg.entry_filter]) and its phase-1, call-return and phase-2
    solution rows.  O(fragment size). *)

val of_previous : Psg.t -> Program.t -> plan
(** [of_previous psg program] plans the re-analysis of a transformed
    [program] from the converged [psg] of its predecessor
    [psg.program]: a routine physically equal ([==]) to the old
    program's routine at the same index reuses its rows of [psg]
    ([Rows (psg, r)], no copy), and every other routine becomes a lift
    donor with a {!slice} of its old rows and its exported/main flags.
    The key is sound only for transformations that never mutate a
    routine in place and return each untouched routine physically
    shared, as the optimizer's passes do.  When the routine count, the
    name at some index or [main] differ, call resolution may differ too,
    and the result is {!cold}. *)

val solutions :
  plan ->
  program:Program.t ->
  parts:Psg_build.part array ->
  filters:Regset.t array ->
  routine_art option array * bool array
(** Decide, after the front-end rebuild, which routines' cached
    {e solutions} are exact: the plan's clean artifacts, plus every donor
    whose rebuilt local fragment, filter, exported flag and main-ness
    are unchanged — an identical equation system has an identical least
    fixpoint.  Returns the solution-clean artifacts (the planners' input)
    and the final exit-seed set: a donor that fails the lift adds its
    cached callees, whose exits may have lost a return-link
    contribution.  [parts] and [filters] are the post-rebuild arrays for
    {e all} routines; a donor's routine has a rebuilt [Local] part. *)

val phase1_plan : Psg.t -> readers:Readers.t -> sols:routine_art option array -> bool array
(** The phase-1 invalidation cone for a stitched PSG, given
    {!solutions}' verdict: the solution-dirty routines' nodes, closed
    under {!Phase1.influence} (in-edge sources, and at a primary entry
    the call nodes of its callers: the §3.2 summary import).  [readers]
    is the PSG's {!Readers.make}, shared with the phases of the same run.
    Also installs every solution-clean routine's cached phase-1 slice
    into {!Psg.t.sets} and its call-return labels into {!Psg.t.labels}. *)

val phase2_plan :
  Psg.t ->
  readers:Readers.t ->
  sols:routine_art option array ->
  exit_seeds:bool array ->
  bool array
(** The phase-2 cone.  Seeds: the solution-dirty routines' nodes, the
    call nodes whose just-converged call-return labels differ from the
    cached ones, and the exit nodes of [exit_seeds] routines; closed
    under {!Phase2.influence} (in-edge sources, and at a return node the
    exits of its call's targets).  Also installs every solution-clean
    routine's cached liveness into {!Psg.t.live}.  Call after phase 1. *)
