(** Application-facing DSM API — the CVM user interface the four
    applications (and any user program) code against.

    All addresses are byte addresses inside the shared segment returned by
    {!malloc} / a backend's pre-run [alloc]; accesses must be word-aligned. The
    optional [site] labels are symbolic program counters used by the
    two-run race identification of paper section 6.1. *)

type node = Node.t
(** The backend-independent processor handle: the same application bodies
    run unmodified on the LRC DSM cluster and on the snooping-bus cache
    backends. *)

val pid : node -> int
val nprocs : node -> int

val malloc : node -> ?name:string -> ?align:int -> int -> int

(** {1 Word accesses} *)

val read_int64 : node -> ?site:string -> int -> int64
val write_int64 : node -> ?site:string -> int -> int64 -> unit
val read_float : node -> ?site:string -> int -> float
val write_float : node -> ?site:string -> int -> float -> unit
val read_int : node -> ?site:string -> int -> int
val write_int : node -> ?site:string -> int -> int -> unit

(** {1 Synchronization} *)

val lock : node -> int -> unit
(** Acquire a lock (not reentrant). Locks are named by small integers;
    they need no declaration. *)

val unlock : node -> int -> unit

val with_lock : node -> int -> (unit -> 'a) -> 'a
(** [with_lock node l f] runs [f] inside the critical section, releasing
    on exceptions. *)

val barrier : node -> unit
(** Global barrier; when detection is on, the race-detection pass runs at
    the barrier master before anyone is released. *)

val consolidate : node -> unit
(** Section 6.3: global-state consolidation for programs that synchronize
    without barriers — an internal global synchronization that runs the
    same detection pass. *)

(** {1 Modeled private computation} *)

val compute : node -> float -> unit
(** [compute node ops] charges [ops] abstract instructions of private
    computation to the cost model. *)

val touch_private : node -> int -> unit
(** [touch_private node n] models [n] private accesses that the static
    analysis could not eliminate: with detection on they pay the full
    analysis-routine cost and count in the private-access rate. *)

val idle : node -> float -> unit
(** Advance simulated time immediately (unlike {!compute}, which accrues
    cost lazily and flushes at the next blocking operation). Used to
    stage interleavings in litmus tests and demos. *)

(** {1 Indexed helpers} *)

val word_size : node -> int
val addr_of_index : node -> int -> int -> int

val read_float_at : node -> ?site:string -> int -> int -> float
val write_float_at : node -> ?site:string -> int -> int -> float -> unit
val read_int_at : node -> ?site:string -> int -> int -> int
val write_int_at : node -> ?site:string -> int -> int -> int -> unit
