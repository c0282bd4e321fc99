(** The backend-independent half of a simulated processor: the paper's
    instrumentation, interval bitmaps and barrier epilogue, shared by the
    LRC DSM node and the snooping-bus machine.

    Both backends reach the {!Sim.Stats} categories only through these
    functions, so their cost breakdowns compare like with like. Float
    sums depend on the order of their terms: each function's sequence of
    charges is part of its contract. *)

type observer = site:string -> addr:int -> Proto.Race.access_kind -> unit

(** Run-wide state, one per cluster or machine. *)
type env = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  symtab : Mem.Symtab.t;  (** names for shared allocations (section 6.1) *)
  probe : Sim.Probe.t option;
      (** the engine's probe, translating sim-level events into the
          configured tracer; [None] without one *)
  recorder : Sync_trace.recorder option;  (** when [record_sync] is set *)
  elide : Elide.t;
  check_stores : bool;  (** whether store instrumentation runs *)
  mutable races : Proto.Race.t list;  (** every epoch's reports, newest first *)
  mutable trace : (int * Racedetect.Oracle.event) list;  (** reversed *)
  mutable timed : (int * int * Racedetect.Oracle.event) list;
      (** the same events with simulated timestamps, reversed *)
  mutable race_seen : bool;
  g_fast : bool;
  g_base : int;
  g_limit : int;
  g_page_shift : int;
  g_page_mask : int;
  g_word_shift : int;
  g_word_mask : int;
}

(** One processor. *)
type t = {
  env : env;
  id : int;
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;  (** the open interval *)
  mutable epoch : int;  (** barrier epoch of the open interval *)
  mutable my_closed : Proto.Interval.t list;
      (** own intervals closed this epoch, newest first *)
  debt : float array;
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  read_cache : Mem.Bitmap.t option array;
  write_cache : Mem.Bitmap.t option array;
  mutable alloc_next : int;
  mutable access_observer : observer option;
}

val create_env :
  cost:Sim.Cost.t -> cfg:Config.t -> check_stores:bool -> pages:int -> env
(** A fresh engine, statistics, geometry of [pages] pages and symbol
    table, with the probe and stall budget installed on the engine.
    Stores are instrumented when detecting and [check_stores] holds (LRC
    passes [false] when the multi-writer diffs provide the write
    bitmaps). *)

val create : env -> id:int -> nprocs:int -> t
(** Processor [id], with its first interval (index 1) open. *)

(** {1 Time debt} *)

val charge_local : t -> float -> unit
(** Accrue local time, advanced at the next {!flush_time}. *)

val charge_category : t -> Sim.Stats.overhead_category -> float -> unit
(** {!charge_local}, also attributed to a Figure-3 overhead category. *)

val flush_time : t -> unit
(** Advance simulated time by the whole nanoseconds of the debt. *)

(** {1 Traces} *)

val emit_trace : t -> Racedetect.Oracle.event -> unit
(** Log an event for the offline oracle, when [record_trace] is set. *)

val emit_sink : t -> Trace.Event.t -> unit
(** Emit into the record/replay tracer, if one is configured. *)

val tracing : t -> bool

(** {1 Intervals} *)

val open_interval : t -> unit
(** Start the next interval at the current epoch: a vector-clock tick,
    the [Interval_open] event and the setup charge. *)

val snapshot_bitmaps :
  ?on_written:(int -> unit) -> t -> Racedetect.Detector.bitmap_store -> Proto.Interval.t -> unit
(** Freeze the current access bitmaps of a closing interval into the
    store, add its read notices, and start empty bitmaps for the next.
    [on_written] sees each page with a write bit set, in snapshot order. *)

val interval_closed : t -> Proto.Interval.t -> unit
(** Record a closed interval for the next barrier and emit its
    [Interval_close] event. *)

(** {1 Shared accesses} *)

val check_addr : t -> int -> unit
(** Raises [Invalid_argument] for an address outside the shared segment
    or not word-aligned. *)

val page_of : t -> int -> int
val word_of : t -> int -> int

val read_note : t -> site:string -> int -> int -> int -> bool
(** [read_note p ~site addr page word]: the instruction charge,
    statistics, race check, watch observation and oracle trace of one
    shared read. True when the check ran (detecting, site not elided). *)

val write_note : t -> site:string -> int -> int -> int -> bool
(** {!read_note} for a store. *)

val touch_private : t -> int -> unit
(** [n] private accesses that survived static elimination: the
    analysis-routine cost, no bitmap bit. *)

val compute : t -> float -> unit
(** Accrue [ops] instructions of private work. *)

val idle : t -> float -> unit
(** Advance simulated time immediately. *)

(** {1 Barrier detection} *)

val check_entry_probe : t -> (Racedetect.Checklist.entry -> unit) option
(** The [Check_entry] emitter for {!Racedetect.Detector.charged_check_list}
    when tracing. *)

val report_races : t -> Proto.Race.t list -> unit
(** The barrier epilogue: apply [first_race_only], keep and emit the
    epoch's races, count them and the barrier. *)

(** {1 Allocation} *)

val malloc : t -> ?name:string -> ?align:int -> int -> int
(** In-run bump allocation over the shared segment. SPMD programs calling
    at the same program points get identical addresses on every
    processor; processor 0 registers [name] in the symbol table. *)

val alloc : t array -> who:string -> ?name:string -> ?align:int -> int -> int
(** Pre-run allocation visible to every processor, registering [name].
    Raises [Invalid_argument (who ^ ": shared segment exhausted")]. *)

(** {1 Run end} *)

val memory_digest : env -> (int -> Bytes.t option) -> int
(** FNV-1a digest of the shared segment, given each page's coherent copy
    ([None] when no copy is coherent). *)
