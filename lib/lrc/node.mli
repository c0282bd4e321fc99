(** Per-processor DSM state and protocol engine — the CVM analogue.

    Application coroutines reach a node through {!view}; protocol
    messages from other processors are serviced by [handle_message],
    which the network invokes at delivery time (CVM's SIGIO handler).
    Handlers never block; replies the application waits for are parked
    and the application coroutine is woken.

    Processor 0 additionally plays the three central roles of the paper's
    prototype: lock manager, page manager (single-writer ownership
    directory) and barrier master, where the race-detection algorithm
    runs. The detector's per-processor half (access notes, intervals,
    bitmaps) is the shared {!Coherence.Proc}. *)

type t

val create : Coherence.Proc.env -> Message.t Sim.Net.t -> id:int -> nprocs:int -> t

val handle_message : t -> Message.t -> unit
(** Network delivery entry point; runs in handler context and never
    blocks. *)

val proc : t -> Coherence.Proc.t

val view : t -> Coherence.Node.t
(** The backend-independent processor handle over this node — what
    {!Cluster.run} hands to application bodies. *)

val coherent_page_raw : t -> int -> Bytes.t option
(** This node's copy of a page, if coherent: valid and with no pending
    write notices. All coherent copies of a page agree once the run is
    over, so {!Cluster.memory_checksum} can hash any one of them. *)

val service_diagnostics : t -> string list
(** Queue depths of the central services hosted at this node (parked lock
    requests, queued page-ownership requests, barrier arrivals) — only
    nonempty at the manager. Fed to {!Sim.Engine.add_diagnostic} so a
    deadlock diagnosis shows where requests are stuck. *)

val retained_site :
  t -> interval:Proto.Interval.id -> page:int -> word:int -> kind:Proto.Race.access_kind ->
  string option
(** With [retain_sites], the site recorded for an access of this interval
    (the single-run identification alternative of section 6.1). *)
