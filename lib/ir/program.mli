(** Whole programs: the unit Spike optimizes.

    A program is a set of routines plus the name of the routine where
    execution starts.  Direct calls naming a routine that is not in the
    program are treated as calls to shared-library code and analysed under
    the calling-standard assumption (paper §3.5). *)

open Spike_isa

type t

val make : main:string -> Routine.t list -> t
(** @raise Invalid_argument on duplicate routine names or a missing
    [main]. *)

val main : t -> string

val main_index : t -> int
(** The index of the [main] routine. *)

val routines : t -> Routine.t array
val routine_count : t -> int
val find : t -> string -> Routine.t option
val find_index : t -> string -> int option
val get : t -> int -> Routine.t
val iter : (int -> Routine.t -> unit) -> t -> unit
val instruction_count : t -> int

val map_routines : (Routine.t -> Routine.t) -> t -> t
(** Rebuild the program with each routine transformed (names must be
    preserved by the transformation). *)

val callees_of : t -> Routine.t -> string list
(** Names of routines in [t] called directly by the given routine
    (deduplicated, program order). *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the full assembly listing: a [.main] directive and a blank
    line, then each routine's {!Routine.to_buffer} listing followed by a
    blank line. *)

val pp : Format.formatter -> t -> unit
(** {!to_buffer}'s listing. *)

val callee_summary_targets : t -> Insn.callee -> int list option
(** Indices of the routines a call may target: [Some []] never happens;
    [None] means the target set is unknown (apply the calling-standard
    assumption).  Direct calls to names outside the program and indirect
    calls without a target list are both [None]. *)
