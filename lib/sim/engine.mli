(** Deterministic discrete-event simulation engine.

    Simulated processors are coroutines built on OCaml 5 effect handlers.
    A process interacts with virtual time by [advance]-ing its clock and
    [block]-ing until woken. A single event loop drains a deterministic
    priority queue, so a given program always produces the same
    interleaving. *)

type t

type pid = int

type diagnosis = {
  diag_time : int;  (** simulated time of the diagnosis *)
  diag_live : int;  (** processes not yet finished *)
  diag_blocked : (pid * string) list;  (** blocked processes and their labels *)
  diag_stalled : bool;
      (** [true]: the stall watchdog budget was exceeded while processes
          were live; [false]: the event queue drained with processes
          still blocked *)
  diag_notes : string list;  (** lines from registered subsystem reporters *)
}

exception Deadlock of diagnosis
(** Raised by [run] when the event queue drains while processes are still
    blocked, or when the stall watchdog fires. The diagnosis lists every
    blocked process with its label plus the registered subsystem reports
    (per-link unacked transport frames, per-lock queue depths). This is
    how lost wakeups, lock cycles, and exhausted retransmission retries
    in simulated programs surface. *)

val pp_diagnosis : Format.formatter -> diagnosis -> unit
val diagnosis_to_string : diagnosis -> string

val create : unit -> t

val now : t -> int
(** Current simulated time in nanoseconds. *)

val spawn : t -> (pid -> unit) -> pid
(** Register a process; its body starts running when [run] is called.
    Pids are assigned densely from 0 in spawn order; the process table is
    a growable array indexed by pid, so [spawn] and pid lookup are O(1). *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** Run a thunk at an absolute simulated time (e.g. message delivery). *)

val schedule_after : t -> delay:int -> (unit -> unit) -> unit

val advance : int -> unit
(** From within a process: consume simulated nanoseconds. *)

val advance_f : float -> unit

val block : label:string -> unit
(** From within a process: suspend until [wake]. The label appears in
    [Deadlock] diagnoses. A wakeup that arrives before the block is not
    lost: the next [block] returns immediately. *)

val wake : t -> pid -> unit
(** Make a blocked process runnable at the current simulated time. *)

val set_probe : t -> Probe.t option -> unit
(** Install (or clear) the scheduling probe: it observes process blocks,
    wakes and finishes at the simulated moment they happen. The probe
    must not mutate simulation state; with no probe installed the hook
    costs one branch. *)

val add_diagnostic : t -> (unit -> string list) -> unit
(** Register a subsystem reporter whose lines are included in every
    [Deadlock] diagnosis (e.g. the transport's per-link unacked queues,
    the lock managers' queue depths). *)

val set_stall_budget : t -> int option -> unit
(** Arm (or disarm, with [None]) the no-progress watchdog: if more than
    this many virtual nanoseconds pass without any process starting,
    resuming or finishing — only bare thunks such as retransmission
    timers firing — [run] raises [Deadlock] with [diag_stalled = true].
    Raises [Invalid_argument] on a non-positive budget. *)

val run : t -> unit
(** Drain the event queue. Raises [Deadlock] if processes remain blocked
    or the stall watchdog fires, and re-raises any exception escaping a
    process body. *)
