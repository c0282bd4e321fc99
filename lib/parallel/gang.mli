(** A fork-join gang for fine-grained rounds: persistent worker domains
    that repeatedly execute one small batch of indexed thunks and
    barrier.

    Built for the sharded simulation engine, whose event windows are
    microseconds of work issued hundreds of thousands of times per run
    — per-round cost is two atomic stores and a generation-counter
    bump, against {!Pool}'s per-task mutexes and condition variables. Use
    {!Pool} for coarse tasks (whole simulation runs); use this for the
    barriers inside one.

    Placement is static: thunk index [i] always runs on slot
    [i mod jobs], so a simulation shard's working set stays in one
    domain's cache across the run instead of migrating wherever a
    work-stealing race sent it. Thunks of one round run concurrently,
    so they must touch disjoint state (the engine's shards do). The
    submitting domain participates as slot 0: [jobs = j] executes on j
    domains using j - 1 spawned workers. *)

type t

val create : ?jobs:int -> unit -> t
(** Spawn a gang of [jobs] executing slots (default
    {!Pool.default_jobs}); [jobs = 1] runs every round inline. *)

val jobs : t -> int

val run : t -> (int * (unit -> unit)) list -> unit
(** Execute one round of [(index, thunk)] work and wait for every thunk
    to finish. Thunks sharing a slot run in list order. If any thunk
    raised, re-raises the first captured failure after the round
    completes. Rounds do not nest: [run] must not be called from inside
    a thunk, and only one domain may submit. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. *)

val with_gang : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run [f], [shutdown] (also on exception). *)
