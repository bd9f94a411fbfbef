(** The SCC-condensation schedule shared by both interprocedural phases.

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
    domain pool bought nothing (DESIGN.md, "Serial phases"). *)

open Spike_support

type t = {
  scc : Scc.t;  (** over routine indices, from {!Psg.call_scc} *)
  comp_of_node : int array;  (** PSG node id [->] component *)
  comp_nodes_p1 : int array array;
      (** component [->] its node ids, split once into the SCCs of the
          phase 1 dependency graph — a node reads its outgoing flow-edge
          targets, and a call node its callee entry nodes.  The SCCs
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

val run :
  ?sched:t ->
  Psg.t ->
  rev:bool ->
  cone:bool array option ->
  (t -> Bytes.t -> int -> int) ->
  int
(** [run ?sched psg ~rev ~cone f] executes [f t scratch c] once for every
    component [c] holding a node of the invalidation [cone] (every
    component when [cone] is [None]) — in topological order ([rev:false],
    successors first: phase 1) or reverse ([rev:true]: phase 2) — and
    returns the sum of the results (the phase's iteration total).  [t] is
    [sched], or, when omitted, a schedule built with {!make}.  An empty
    cone returns 0 without building anything.

    [scratch] is an all-zero mark bitset of [Psg.node_count] bytes for
    the component's rank-ordered sweeps, shared by every component; [f]
    must return it all-zero (a drained fixpoint does). *)

val drain : order:int array -> ends:int array -> Bytes.t -> (int -> unit) -> int
(** [drain ~order ~ends marked process] sweeps one component's order (a
    [comp_nodes_*], [comp_ends_*] pair) one SCC at a time: each node
    marked in [marked] is unmarked and handed to [process], which may
    mark further nodes of its own SCC or a later one; an SCC is swept
    again until a pass pops nothing.  Returns the number of pops;
    [marked] is all-zero on return. *)
