(** The end-to-end interprocedural dataflow analysis driver.

    Runs the five stages the paper times separately (Figure 13):
    {ol {- {b CFG Build} — per-routine control-flow graphs;}
        {- {b Initialization} — per-block DEF/UBD sets and the §3.4
           callee-saved save/restore detection;}
        {- {b PSG Build} — program summary graph nodes and labelled edges;}
        {- {b Phase 1} — call-used / call-defined / call-killed;}
        {- {b Phase 2} — live-at-entry / live-at-exit.}}

    Stage elapsed times accumulate in the result's {!Spike_support.Timer.t}
    under the stage-name constants below.  When {!Spike_obs.Trace} (resp.
    {!Spike_obs.Metrics}) collection is enabled, each stage is also
    recorded as a span — with per-routine sub-spans on the lane of the
    pool domain that ran them — and the registry accumulates worklist,
    edge-dataflow, PSG-composition and heap-gauge metrics; the
    [phase1.iterations] / [phase2.iterations] counters match the
    [phase1_iterations] / [phase2_iterations] fields exactly.  Disabled
    collection costs one branch per probe. *)

open Spike_support
open Spike_ir
open Spike_cfg

type front
(** Every routine's CFG and DEF/UBD sets, behind {!cfg} and {!defuse}. *)

type t = {
  program : Program.t;
  front : front;
      (** per-routine memo behind {!cfg} and {!defuse}: filled by the
          front end for every routine it rebuilt, built on first demand
          for a routine whose artifact the warm plan reused *)
  psg : Psg.t;
  call_classes : Summary.call_class array;  (** indexed by routine *)
  summaries : Summary.t array;  (** indexed by routine *)
  timer : Timer.t;
  phase1_iterations : int;
  phase2_iterations : int;
  branch_nodes : bool;  (** configuration, for {!rerun} *)
  externals : string -> Psg.external_class option;
  callee_saved_filter : bool;
  jobs : int;
      (** parallelism degree the front-end stages and the schedule
          build ran with *)
  reused_routines : int;
      (** routines whose front-end artifacts came from the warm plan *)
  schedule : Sched.t option;
      (** the schedule a {!rerun} result hands to the next rerun: the one
          its phases built or carried forward, [None] when it had none.
          Always [None] after {!run}, which retains nothing beyond its
          result. *)
}

val stage_cfg_build : string
val stage_init : string
val stage_psg_build : string

val stage_sched : string
(** Building the {!Sched} condensation schedule.  Only recorded when some
    phase has work to do and no schedule was carried forward: a warm run
    whose invalidation cones are both empty never builds the schedule,
    and neither does a {!rerun} that kept the previous PSG's topology. *)

val stage_phase1 : string
val stage_phase2 : string

val run :
  ?branch_nodes:bool ->
  ?externals:(string -> Psg.external_class option) ->
  ?callee_saved_filter:bool ->
  ?jobs:int ->
  ?warm:Warm.plan ->
  ?capture:bool ->
  Program.t ->
  t
(** Analyse a whole program.  [branch_nodes] (default [true]) controls
    §3.6 branch-node insertion.  [externals] supplies §3.5 summaries for
    call targets outside the image (shared libraries); uncovered names get
    the calling-standard assumption.  The program must validate
    ({!Spike_ir.Validate.check}); behaviour on ill-formed programs is
    unspecified.  [callee_saved_filter] (default [true]) controls the §3.4
    filter — disabling it is an ablation that shows how much precision the
    save/restore transparency buys.

    [jobs] (default {!Spike_support.Pool.default_jobs}, i.e.
    [Domain.recommended_domain_count] clamped; explicit values are clamped
    to [[1, 64]]) is the number of domains the per-routine front-end
    stages — CFG build, initialization and the PSG local pass — run on;
    {!Sched.make} also builds its two phase orders on the pool.  The
    phase 1 / phase 2 fixpoints run serially.  Results are bit-identical
    for every [jobs] value.  With [jobs > 1], [externals] is called
    concurrently and must be thread-safe.  Stage times recorded in
    [timer] are wall-clock, so a parallel stage reports its elapsed time,
    not the sum over domains.

    [warm] supplies a {!Warm.plan} of per-routine artifacts from an
    earlier run of the {e same} program configuration (modulo the edits
    that dirtied some routines): clean routines skip CFG build,
    initialization and the PSG local pass (their CFGs are built only if
    a consumer asks {!cfg}), and both phases re-converge
    only their invalidation cones.  Results are guaranteed bit-identical
    to a cold run.  Omitted, it defaults to the all-cold plan
    {!Warm.cold}: every run goes through the same pipeline, and a run in
    which no routine's solution is reused skips the invalidation cones
    and runs both phases cold.  The caller is responsible for only
    reusing artifacts whose inputs are unchanged — that is what
    {!Spike_store} fingerprints enforce.

    [capture] is accepted and ignored.  Every converged PSG is its own
    capture: {!Warm.slice} reads a routine's artifact off [psg] when a
    store or a {!rerun} asks, so no run retains artifacts for later. *)

val rerun : t -> Program.t -> t
(** Re-analyse a transformed program under the same configuration
    (branch nodes, external summaries, callee-saved filter, jobs) — what
    the optimizer uses between passes.  The result is bit-identical to a
    cold {!run} of the program.

    The rerun is warm, whether [t] came from {!run} or from a rerun: a
    routine physically equal ([==]) to the routine at the same index of
    [t.program] reuses its slice of [t.psg], and every other routine is
    rebuilt with its old slice as a lift donor ({!Warm.of_previous}).
    Physical identity is a sound key because the optimizer's passes
    never mutate a routine in place and return each routine they leave
    alone physically shared; the configuration is carried in [t], so
    call resolution cannot change behind the key.

    When every rebuilt routine's new fragment has its donor's topology
    ({!Psg_build.same_topology}), the new PSG shares [t.psg]'s shape lanes
    and the phases run on [t.schedule] instead of building one: both are
    functions of the topology alone.  The result keeps its schedule for
    the next rerun, also when neither phase needed it.

    It falls back to a cold run when the routine count, the name at some
    index or the [main] routine differ from [t.program]'s.  When every
    routine is physically unchanged, nothing runs: the result is [t] for
    the new program, with [reused_routines] equal to the routine count,
    zero phase iterations and an empty timer. *)

val cfg : t -> int -> Cfg.t
(** [cfg t r] is the CFG of routine [r] of [t.program] — the optimizer's
    and the checkers' view of a routine's blocks.  A cold run keeps every
    CFG it built; a routine the warm plan reused gets
    [Cfg.build (Program.get t.program r)] on first demand, memoized, and
    {!rerun} hands each physically unchanged routine the previous
    result's entry.  Not domain-safe: call it (and {!defuse}) from one
    domain at a time, as every consumer of an analysis does. *)

val defuse : t -> int -> Defuse.t
(** [defuse t r] is {!Defuse.compute} of [cfg t r], memoized with it.
    Not domain-safe, like {!cfg}. *)

val summary_of : t -> string -> Summary.t option
(** Summary of a routine by name. *)

val site_class : t -> int -> Summary.call_class
(** [site_class t c] is {!Summary.site_class} of call [c] of [t.psg]. *)

val total_seconds : t -> float
val pp_times : Format.formatter -> t -> unit
