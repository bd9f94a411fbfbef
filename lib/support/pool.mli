(** A fixed-size pool of worker domains for embarrassingly parallel loops.

    The analysis front-end (CFG build, DEF/UBD computation, save/restore
    detection, per-routine PSG construction) is a sequence of independent
    per-routine computations, so it parallelizes with near-linear speedup on
    OCaml 5 multicore.  A pool spawns [jobs - 1] worker domains once and
    reuses them across every parallel operation, so the per-stage cost is a
    broadcast and a join, not domain creation.

    Work is dealt in contiguous index chunks through a shared atomic
    counter: results land at the same index as their input (ordering is
    preserved by construction), and a fast worker steals the chunks a slow
    one never claims.  The first exception raised by any worker (or by the
    calling domain) aborts the remaining chunks and is re-raised, with its
    backtrace, on the calling domain.

    The pool runs independent work only.  The two interprocedural phases
    are fixpoints over one call-graph condensation whose largest
    component holds most routines, so they run serially; the pool's one
    use in the schedule is building the two phases' orders side by side
    ([Spike_core.Sched.make]).

    With [jobs = 1] no domains are spawned and every operation degrades to
    a plain sequential loop, so a pool can be threaded through code
    unconditionally.

    The user-supplied functions run concurrently on several domains; they
    must not share unsynchronized mutable state.  All functions of this
    module except {!parallel_map_array} and {!parallel_init} themselves
    must be called from the domain that created the pool.

    When {!Spike_obs.Trace} is enabled, every executed chunk is recorded
    as a ["pool.chunk"] span on the executing domain's lane, and the
    ["pool.items"] / ["pool.chunks"] counters accumulate when
    {!Spike_obs.Metrics} is enabled.  Item totals are identical for every
    [jobs] value; chunk totals depend on the partition. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [[1, 16]] — the
    default parallelism for the analysis driver, CLI and bench harness. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs] is clamped to
    [[1, 64]]).  Call {!shutdown} (or use {!with_pool}) when done; a live
    pool pins its domains. *)

val jobs : t -> int
(** The clamped parallelism degree, including the calling domain. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent.  Outstanding
    operations must have completed. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] is [f (create ~jobs)] with a guaranteed
    {!shutdown}, whether [f] returns or raises. *)

val parallel_map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array pool f items] is [Array.map f items], with the
    calls to [f] distributed over the pool's domains.  [f] must be safe to
    call concurrently from several domains. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f], distributed likewise. *)
