(** Phase 1 of the interprocedural dataflow (paper §3.2).

    Computes, for every PSG node, the registers that may be used, may be
    defined, and must be defined along paths from the node's location to
    the end of its routine — including the effect of every (transitive)
    call, propagated callee-to-caller across call-return edges.  On
    convergence the sets at a routine's primary entry node are exactly the
    registers [call-used], [call-killed] and [call-defined] by a call to
    the routine.

    Deviation from the paper's Figure 8, documented in DESIGN.md: at a node
    with several outgoing edges the MAY sets combine by union and MUST-DEF
    by intersection (the figure's literal equations union everything, which
    would over-approximate must-definedness).

    The §3.4 callee-saved filter is applied each time an entry node's sets
    are recomputed, and the call instruction's own effect is folded into
    the call-return edge label, so the summary seen by a caller is
    [call ∘ callee]. *)

type warm = {
  cone : bool array;
      (** node id [->] the node is inside the invalidation cone: it gets
          the cold initialization and is marked for recomputation *)
  restore : Spike_support.Regset.t array;
      (** previously converged (MAY-USE, MAY-DEF, MUST-DEF), packed as three
          consecutive sets per node id, installed verbatim for nodes
          outside the cone *)
  cr_restore : Spike_support.Regset.t array;
      (** previously converged call-return edge labels, packed as three
          sets per call index, installed when the call node is outside
          the cone *)
}
(** A warm start.  Soundness precondition (established by
    {!Warm.phase1_plan}): the cone is closed under phase-1 influence — if a
    node's recomputation reads another node's sets (through an outgoing
    edge, or an entry node through a call-return edge of a caller), the
    reader is in the cone whenever the read node is.  Values outside the
    cone must be the converged solution of a PSG in which those nodes, and
    everything they transitively read, are unchanged.  Under that
    precondition the fixpoint reached is bit-identical to a cold run: cone
    nodes restart from the lattice bottom and outside nodes already hold
    their (unique, least) fixpoint values. *)

val run : ?warm:warm -> ?sched:Sched.t -> Psg.t -> int
(** Runs to convergence, mutating the node sets and the call-return edge
    labels in place (flow edge labels are never modified).  Returns the
    number of node recomputations performed, a diagnostic for the
    convergence behaviour.  [warm] restricts initialization and seeding
    to the invalidation cone; omitted, every node is (re)computed from
    scratch.

    The fixpoint runs one call-graph SCC at a time in callee-first
    topological order over [sched] (see {!Sched}): each component's
    call-return edges are seeded from already-converged callee summaries,
    so iteration is confined to intra-component cycles.  With a
    multi-domain pool in the schedule, independent components run
    concurrently.  Omitted, a serial schedule is built on demand — only
    when the cone is non-empty.  Only components intersecting the cone
    are executed.  The equation system is monotone over a finite lattice,
    so its solution is unique: serial, parallel and warm runs reach
    bit-identical sets. *)
