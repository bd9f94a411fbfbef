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

val influence : Psg.t -> Readers.t -> int -> (int -> int -> unit) -> unit
(** Phase 1's influence relation ({!Sched.phase}'s [influence]): node
    [v] is read by the source of each of its in-edges, and a routine's
    primary entry node also by the call node of every call that may
    target the routine ([via = -1 - c]), whose call-return label imports
    the entry's sets.  Secondary entries feed no label. *)

val phase : Psg.t -> Sched.phase
(** Phase 1's equations over [psg] for {!Sched.run}: cold start at the
    lattice bottom (MUST-DEF at top), the call-return labels seeded from
    converged callee summaries when a component starts, and the Figure 8
    recomputation.  Components run callees first. *)

val run : ?sched:Sched.t -> Psg.t -> int
(** [Sched.run] of {!phase} from scratch over every node: runs to
    convergence, writing the node triples of {!Psg.t.sets} and the
    call-return labels of {!Psg.t.labels} in place (flow labels and
    {!Psg.t.live} are never modified), and returns the number of node
    recomputations.  [sched] is built when omitted; the readers always
    are.  Warm runs call {!Sched.run} with a cone instead. *)
