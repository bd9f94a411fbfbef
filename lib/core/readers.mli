(** The PSG's reverse relations, built for one run and dropped after it.

    A converged {!Psg.t} keeps forward lanes only.  What reads a node's
    readers — the phases' influence relations ({!Phase1.influence},
    {!Phase2.influence}), which the driver re-marks along and the warm
    planners close the invalidation cones under, and phase 2's exit
    equation, which reads the return node of every caller — asks for
    this transpose, built once per run from the forward lanes by
    counting sort and shared by every planner and phase of that run
    (DESIGN.md, "PSG lanes").

    - Node [n]'s in-edges are [in_edge.(in_off.(n)) .. in_edge.(in_off.(n + 1) - 1)],
      ascending by edge id; [in_src] is parallel to [in_edge] and holds
      each in-edge's source node.
    - Routine [r]'s callers are the call indices
      [callers_of.(callers_off.(r)) .. callers_of.(callers_off.(r + 1) - 1)],
      ascending: every call whose target row names [r]. *)

type t = private {
  in_off : int array;  (** node id [->] start of its in-edge row; length nodes + 1 *)
  in_edge : int array;  (** in-edge ids, grouped by destination node *)
  in_src : int array;  (** parallel to [in_edge]: each in-edge's source node *)
  callers_off : int array;  (** routine [->] start of its caller row; length routines + 1 *)
  callers_of : int array;  (** call indices whose targets name the routine *)
}

val make : Psg.t -> t
(** The transpose of a PSG's edge and call-target lanes.  O(nodes + edges
    + calls + targets); the PSG is only read.  Counted on [readers.built]. *)

val callers : t -> int -> int list
(** Routine [r]'s caller row as a list. *)

val iter_in : t -> int -> (int -> int -> unit) -> unit
(** [iter_in t v f] calls [f e u] for each in-edge [e] of node [v],
    ascending, with [u] its source. *)
