(** Elapsed-time stage accumulation.

    The paper reports the fraction of total analysis time spent in each of
    five stages (CFG build, initialization, PSG build, phase 1, phase 2;
    Figure 13).  A {!t} accumulates seconds per named stage across repeated
    [record] calls so the analysis driver can attribute every stage of every
    routine to the right bucket. *)

type t

val create : unit -> t

val record : t -> string -> (unit -> 'a) -> 'a
(** [record t stage f] runs [f ()], adding its elapsed duration to
    [stage]'s accumulated total.  Elapsed time is the right attribution
    for stages that fan out over a {!Pool}: a parallel stage reports its
    elapsed time, not CPU time summed over domains.  A [record] nested in
    [f] counts for its own stage only: [stage] gets [f]'s elapsed time
    less the nested records', so no second counts twice in {!total}. *)

val add : t -> string -> float -> unit
(** [add t stage secs] adds [secs] to [stage] directly. *)

val get : t -> string -> float
(** Accumulated seconds for a stage (0 if never recorded). *)

val total : t -> float
(** Sum over all stages. *)

val stages : t -> (string * float) list
(** Stages in first-recorded order with their accumulated seconds. *)

val reset : t -> unit

val now : unit -> float
(** Monotonic seconds ({!Spike_obs.Clock.now}, i.e. [CLOCK_MONOTONIC]) —
    the same source {!Spike_obs.Trace} spans use, so stage totals and
    trace spans are directly comparable, and deltas are safe under NTP
    wall-clock adjustment.  Only deltas are meaningful. *)
