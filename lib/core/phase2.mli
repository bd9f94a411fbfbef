(** Phase 2 of the interprocedural dataflow (paper §3.3).

    Recomputes every node's MAY-USE set as {e liveness}: the registers that
    may be read before being written along some valid continuation of
    execution from the node's location.  Information flows caller-to-callee
    — a return node's live set is copied into the exit nodes of every
    routine that can return to it — while the call-return edge labels
    retained from phase 1 carry each call's use/kill summary.  Because
    those labels were computed per callee, a register live at one call's
    return site never leaks to another call site of the same routine: the
    solution is meet-over-all-valid-paths.

    On convergence, an entry node's MAY-USE is the routine's
    {e live-at-entry} set and an exit node's MAY-USE its
    {e live-at-exit} set.

    Seeds: exit nodes of exported routines get the calling standard's
    conservative live-on-return set; exit nodes of the program's main
    routine get the return-value registers; unknown-exit nodes get all
    registers (§3.5).  Liveness is phase 2's own lane, {!Psg.t.live}:
    phase 1's node sets are left as they were. *)

type warm = {
  cone : bool array;
      (** node id [->] the node is inside the invalidation cone: it
          restarts from its constant liveness seed and is marked for
          recomputation *)
}
(** A warm start; see {!Phase1.warm} for the contract.  Liveness outside
    the cone is left as found: {!Warm.phase2_plan} installs it.  Phase-2 influence
    additionally flows from a return node to the exit nodes of every
    routine its call can target, so the cone must be closed under that
    relation too ({!Warm.phase2_plan} is). *)

val run : ?warm:warm -> ?sched:Sched.t -> ?readers:Readers.t -> Psg.t -> int
(** Runs to convergence, writing {!Psg.t.live} in place.  Returns
    the number of node recomputations performed.  [warm] restricts
    initialization and seeding to the invalidation cone.

    The fixpoint runs one call-graph SCC at a time in caller-first
    (reverse topological) order over [sched], built on demand when
    omitted and the cone is non-empty, like [readers]; see {!Phase1.run} for the
    contract — the solution is unique, so cold and warm runs all
    converge to bit-identical liveness. *)
