(** A simulated DSM cluster: engine, network, one {!Node} per processor,
    and the run driver for SPMD bodies. *)

type t

val create : ?cost:Sim.Cost.t -> ?cfg:Config.t -> nprocs:int -> pages:int -> unit -> t
(** Build a cluster of [nprocs] processors over a shared segment of
    [pages] pages. Page/word sizes come from the cost model. *)

val alloc : t -> ?name:string -> ?align:int -> int -> int
(** Pre-run shared allocation visible to every node (how the applications
    lay out their shared data before the workers start). [name] registers
    the range in the symbol table so race reports resolve symbolically.
    Raises [Invalid_argument] when the segment is exhausted. *)

val run : t -> body:(Coherence.Node.t -> unit) -> unit
(** Spawn one process per node running [body] and drive the simulation to
    completion. Exceptions from bodies (failed self-checks) propagate;
    blocked processes raise {!Sim.Engine.Deadlock}. *)

val races : t -> Proto.Race.t list
(** Deduplicated race reports from every barrier epoch. *)

val trace : t -> Racedetect.Oracle.trace
(** The access/synchronization event log, when [record_trace] was set. *)

val timed_trace : t -> (int * int * Racedetect.Oracle.event) list
(** The same events with simulated-time stamps, for {!Core.Timeline}. *)

val sync_trace : t -> Coherence.Sync_trace.t option
(** The recorded lock-grant order, when [record_sync] was set. *)

val race_sites : t -> Proto.Race.t -> string option * string option
(** With [Config.retain_sites]: the source sites of the two halves of a
    race (the single-run identification alternative of section 6.1). *)

val sim_time : t -> int
(** Final simulated time in nanoseconds. *)

val memory_checksum : t -> int
(** Combined digest of every node's view of the shared segment. The fault
    sweep compares it across drop rates: a lossy run that converges must
    reproduce the reliable baseline's memory image bit for bit. *)

val stats : t -> Sim.Stats.t
val symtab : t -> Mem.Symtab.t

val backend :
  ?cost:Sim.Cost.t -> ?cfg:Config.t -> nprocs:int -> pages:int -> unit -> Coherence.Backend.t
(** A fresh cluster behind the backend interface, named ["lrc"]. *)
