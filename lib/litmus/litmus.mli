(** Memory-model litmus tests over the DSM.

    Classic shapes (message passing, store buffering, read-read
    coherence) run under a chosen protocol; [explore] sweeps a grid of
    per-processor delays and collects the set of outcomes the
    deterministic simulation can actually exhibit. The assertions mirror
    paper section 6.4: SC-forbidden outcomes become observable under LRC
    when synchronization is missing, and vanish when it is present. *)

type registers = (string * int) list

type test = {
  name : string;
  nprocs : int;
  shared_words : int;
  body : base:int -> Coherence.Dsm.node -> delay:(float -> unit) -> registers;
}

val run : ?protocol:Lrc.Config.protocol -> delays:float array -> test -> registers
(** One deterministic execution with the given per-processor start
    delays; returns the union of every processor's observed registers. *)

val default_grid : float array

val explore : ?protocol:Lrc.Config.protocol -> ?grid:float array -> test -> registers list
(** All distinct outcomes over the delay grid (cartesian product). *)

val observable :
  ?protocol:Lrc.Config.protocol -> ?grid:float array -> test -> registers -> bool

(** The shapes. x and y live on separate pages. *)

val message_passing : test
(** SC forbids r1 = 1 and r2 = 0. *)

val message_passing_synchronized : test
(** Same shape under a lock; every protocol must forbid the weak outcome. *)

val message_passing_late_publish : test
(** Publication under a lock followed by an unsynchronized write: LRC
    exhibits r1 = 1 and r2 = 0, which SC forbids at this timing — the
    Figure 5 effect in miniature. *)

val store_buffering : test
(** SC forbids r1 = 0 and r2 = 0. *)

val coherence_rr : test
(** Per-location coherence forbids reading x backwards. *)

val all : test list

(** {1 Protocol-stress kernels}

    Small pointed programs aimed at the protocol core's hot paths: diff
    caching, interval GC, repeated write notices against invalid pages,
    lock handoff chains, and false/true sharing at barriers. Each runs
    with detection on and a recorded access trace, so tests can require
    the online detector and the offline oracle to agree exactly. Kernels
    self-check the values they read and raise on any wrong answer. *)

type kernel = {
  k_name : string;
  k_nprocs : int;
  k_pages : int;
  k_words : int;
  k_cfg : Lrc.Config.t -> Lrc.Config.t;
  k_body : base:int -> Coherence.Dsm.node -> unit;
  k_binary : unit -> Instrument.Binary.t;
      (** the kernel's synthetic binary: a CFG mirroring the body's
          shared accesses (same sites, locks and barriers), so the
          static MHP analysis applies to kernels exactly as to apps *)
}

type kernel_outcome = {
  detected : int list;  (** racy addresses the online detector reported *)
  oracle : int list;  (** racy addresses from the offline happens-before oracle *)
  checksum : int;
  watch_hits : Instrument.Watch.hit list;  (** [] unless [watch_addrs] given *)
}

val run_kernel :
  ?backend:string ->
  ?protocol:Lrc.Config.protocol ->
  ?watch_addrs:int list ->
  ?elide:bool ->
  kernel ->
  kernel_outcome
(** One deterministic execution under the given backend (default
    ["lrc"]) and protocol (default multi-writer, the protocol whose
    machinery the kernels stress; bus backends ignore it).
    [watch_addrs] wires an {!Instrument.Watch} observer onto every node;
    [elide] skips runtime checks at the sites the kernel's binary is
    statically proven race-free at. *)

val diff_cache_reuse : kernel
val gc_interval_rerequest : kernel
val write_notice_invalid_page : kernel
val lock_handoff_chain : kernel
val lock_chained_publish : kernel
val false_sharing_writers : kernel
val true_sharing_overlap : kernel
val multi_reader_race : kernel
val partially_locked : kernel

val kernels : kernel list
