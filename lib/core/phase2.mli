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

val influence : Psg.t -> Readers.t -> int -> (int -> int -> unit) -> unit
(** Phase 2's influence relation ({!Sched.phase}'s [influence]): node
    [v] is read by the source of each of its in-edges, and a return node
    also by the exit nodes of every routine its call may target
    ([via = -1 - c]), whose liveness includes the return point's. *)

val phase : Psg.t -> Sched.phase
(** Phase 2's equations over [psg] for {!Sched.run}: cold start at the
    constant seeds, and the liveness recomputation, which at an exit node
    reads the return node of every caller ({!Readers.t.callers_of}).
    Components run callers first. *)

val run : ?sched:Sched.t -> Psg.t -> int
(** [Sched.run] of {!phase} from scratch over every node: runs to
    convergence, writing {!Psg.t.live} in place, and returns the number
    of node recomputations.  [sched] as for {!Phase1.run}. *)
