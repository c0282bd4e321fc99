(** Record/replay orchestration over {!Driver}.

    [record] runs an application with a {!Trace.Sink.recorder} plugged
    into the cluster; [replay] rebuilds the configuration from the log's
    metadata, re-runs under a {!Trace.Replay.verifier}, and reports the
    first divergence if the two executions disagree anywhere — from a
    single wire-frame fate up to the final race set and memory image. *)

val meta_of :
  app_name:string -> scale:Apps.Registry.scale -> nprocs:int -> Lrc.Config.t ->
  Trace.Codec.meta
(** The metadata header a recording of this configuration carries.
    [m_sim_jobs] is always [None]. *)

val config_of_meta : Trace.Codec.meta -> Lrc.Config.t
(** The cluster configuration a log's metadata describes (tracer unset). *)

val record :
  ?cost:Sim.Cost.t ->
  ?cfg:Lrc.Config.t ->
  app_name:string ->
  scale:Apps.Registry.scale ->
  nprocs:int ->
  unit ->
  Driver.outcome * string
(** Run once with recording on; returns the outcome and the binary log.
    Any [tracer] already present in [cfg] is replaced by the recorder. *)

type replay_result = {
  rr_meta : Trace.Codec.meta;
  rr_outcome : Driver.outcome;
  rr_divergence : Trace.Replay.divergence option;
  rr_races_match : bool;  (** live race set equals the log's [Race] events *)
  rr_checksum_match : bool;  (** live memory checksum equals the log's [Run_end] *)
}

val clean : replay_result -> bool
(** No divergence, races match, checksum matches. *)

val replay : ?cost:Sim.Cost.t -> string -> replay_result
(** Verify a binary log by re-execution. Raises {!Trace.Codec.Corrupt}
    on a malformed log, and before running anything on metadata this
    build cannot re-execute: an unknown app, scale, protocol or backend,
    or an [m_sim_jobs] marker (a recording on the removed sharded
    engine). The message names the field and its value. *)

val load : string -> string
(** Read a whole binary file. *)

val save : string -> string -> unit
(** Write a binary file. *)
