(** Fixed-size Domains work pool for embarrassingly parallel simulation
    sweeps.

    Every task is expected to be a self-contained simulation run: it
    builds its own cluster, engine, stats and RNGs, touches only
    read-only shared state (see docs/PARALLEL.md for the audit), and
    returns a value instead of printing. Under that contract the pool
    guarantees:

    - {b submission-order results}: [run]/[map_exn] return results in
      the order tasks were submitted, regardless of completion order, so
      a parallel sweep renders byte-identically to a sequential one;
    - {b crash isolation}: a raising task becomes an [Error] result
      carrying the exception and its backtrace — it never kills a
      worker or the pool, and the remaining tasks still run;
    - {b sequential fidelity}: a pool created with [jobs = 1] spawns no
      domains at all and runs each task inline on the calling domain at
      submission, making [~jobs:1] executions indistinguishable from
      code that never heard of the pool. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — the default
    worker count everywhere a [--jobs] flag is offered. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs}).
    [jobs = 1] is the inline pool: no domains are spawned. Raises
    [Invalid_argument] if [jobs < 1]. *)

val shutdown : t -> unit
(** Stop accepting tasks, run any still-queued tasks on the calling
    domain, and join every worker. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] (also on exception). *)

type failure = {
  f_exn : exn;  (** the exception the task raised *)
  f_backtrace : string;  (** its raw backtrace, captured in the worker *)
}

val run : t -> (unit -> 'a) list -> ('a, failure) result list
(** Submit every thunk, wait for them all, and return their results in
    submission order. Raises [Invalid_argument] after [shutdown]. *)

val map_exn : t -> ('a -> 'b) -> 'a list -> 'b list
(** [run] over [f x] for each [x], but re-raising the first (in
    submission order) failing task's exception, after all tasks have
    finished — matching what a plain [List.map] would have raised
    sequentially. *)
