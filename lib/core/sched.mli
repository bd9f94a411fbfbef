(** The SCC-condensation schedule and the one fixpoint driver both
    interprocedural phases run on.

    Both phase fixpoints propagate information along the routine call
    graph — callee to caller in phase 1, caller to callee in phase 2 —
    and every PSG edge connects two nodes of the {e same} routine, so the
    cross-routine dependence structure of either phase is exactly the
    call-graph condensation.  Processing components in topological order
    (reversed for phase 2) and iterating only {e inside} each component
    gives one bounded fixpoint per component: cross-component inputs are
    already converged when a component starts, by the schedule.  Inside
    a component, each phase's nodes are split once into the SCCs of the
    phase's node dependency graph and swept one SCC at a time, reads
    first, each until it is stable.

    Because each phase's equation system is monotone over a finite
    lattice, its fixpoint is unique — so the values a component converges
    to do not depend on the order the components ran in, and the
    schedule's results are bit-identical to the independent reference
    solver's.  The components run one after another on the calling
    domain: one recursion component holds most of the routines of the
    calibrated workloads, so dispatching independent components to a
    domain pool bought nothing (DESIGN.md, "Serial phases").

    A phase hands the driver ({!run}) its equations and one influence
    relation, "whom must I re-examine when node [v] changes".  That
    relation is the transpose of the dependency graph whose SCCs order
    the phase's sweep; the driver re-marks along it and the warm planners
    close their invalidation cones under it ({!Warm.phase1_plan}). *)

open Spike_support

type t = {
  scc : Scc.t;  (** over routine indices, from {!Psg.call_scc} *)
  comp_of_node : int array;  (** PSG node id [->] component *)
  comp_nodes_p1 : int array array;
      (** component [->] its node ids, split once into the SCCs of the
          phase 1 dependency graph — a node reads its out-edge
          destinations, and a call node its callees' primary entry
          nodes.  The SCCs
          appear reads-first, one after another, each in the dependency
          graph's DFS postorder.  A node on no dependency cycle pops at
          most once; a knot (CFG loop, recursion spine) is swept until
          a pass pops nothing, so its readers see its final values
          exactly once. *)
  comp_ends_p1 : int array array;
      (** parallel to [comp_nodes_p1.(c)]: [ends.(a) = e] for the SCC
          spanning [a, e); 0 at every other position *)
  comp_nodes_p2 : int array array;
      (** the same order for the phase 2 dependency graph (flow-edge
          targets, and caller return nodes at exit nodes) *)
  comp_ends_p2 : int array array;
  comp_calls : int array array;
      (** component [->] the call indices whose call node lives in the
          component, ascending *)
}

val make : ?pool:Pool.t -> Psg.t -> t
(** Build the schedule for a PSG.  O(nodes + edges + calls).  With
    [pool], the two phase orders are built concurrently; the result does
    not depend on it.  The result depends only on the PSG's topology
    ({!Psg_build.same_topology}); every call counts one on the
    [sched.built] counter. *)

type probes
(** A phase's observability handles: its [NAME.fixpoint] span and its
    [NAME.iterations], [NAME.worklist.pushes] and [NAME.pops.KIND]
    counters. *)

val probes : string -> probes
(** [probes name] registers the handles of phase [name]; call it once, at
    module initialization. *)

type direction =
  | Callees_first  (** topological order, callees first: phase 1 *)
  | Callers_first  (** reverse topological order: phase 2 *)

type phase = {
  probes : probes;
  direction : direction;
      (** the component order, and which of [comp_nodes_p1]/[comp_nodes_p2]
          sweeps each component *)
  start : int -> bool;
      (** at its component's start, cold-start an in-cone node; whether
          its equation must be evaluated *)
  enter_call : int -> unit;
      (** then, each of the component's calls whose call node is in the
          cone *)
  recompute : Readers.t -> int -> bool;
      (** re-evaluate a node's equation in place; whether its value changed *)
  influence : Readers.t -> int -> (int -> int -> unit) -> unit;
      (** [influence readers v f] calls [f via u] for every node [u] whose
          equation reads node [v]: [via >= 0] when [u] reads [v] through
          its out-edge [via], [via = -1 - c] when it reads [v] through
          call [c]'s link between routines *)
  affects : int -> int -> bool;
      (** [affects via u], for a reader [influence] named: whether the
          changed read can move [u]'s value.  False only when
          re-examining [u] is a provable no-op (DESIGN.md, "Mark
          pruning"). *)
}
(** One phase's equations, as the driver sees them. *)

val run :
  ?sched:t Lazy.t -> ?readers:Readers.t Lazy.t -> ?cone:bool array -> Psg.t -> phase -> int
(** [run ?sched ?readers ?cone psg phase] runs [phase] to its fixpoint and
    returns the number of node recomputations (also added to its
    iteration counter).  Only the invalidation [cone] (every node when
    omitted) restarts; the rest keep the values a warm planner
    installed.  An empty cone runs nothing and forces neither [sched]
    nor [readers]: this is the one place that decides a phase has
    nothing to run.  Otherwise, for each component holding a cone node,
    in [direction]'s order, it starts the in-cone nodes (marking those
    [start] asks for), enters the in-cone calls and sweeps the
    component's order one SCC at a time until a pass pops nothing.  A
    popped node is recomputed; if it changed, every reader [influence]
    names in the same component and [affects] admits is marked.  A
    reader in another component has not started yet: it starts from the
    final value, so no node is read before its own component starts.
    [sched] and [readers] default to {!make} and {!Readers.make}.

    A warm cone must be closed under [influence], with the values outside
    it the converged solution of a PSG in which those nodes, and all
    they transitively read, are unchanged ({!Warm.phase1_plan},
    {!Warm.phase2_plan}).  Each phase's equations are monotone over a
    finite lattice, so the fixpoint is unique: cold and warm runs reach
    bit-identical values. *)
