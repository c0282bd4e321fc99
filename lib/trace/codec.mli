(** Binary trace-log codec.

    Layout: magic ["CVMT"], a format-version byte, the run metadata, then
    one record per event — tag byte, zigzag-LEB128 time delta, fields.
    The metadata makes a log self-contained: [replay] rebuilds the exact
    cluster configuration from it. *)

val magic : string

val version : int
(** The format version this build writes (v5). *)

val min_version : int
(** The oldest format version this build still decodes (v1: no
    transport tuning beyond the retry cap, no interval-GC cadence). *)

type transport_meta = {
  tm_initial_rto_ns : int;
  tm_max_rto_ns : int;
  tm_max_retries : int;
  tm_header_bytes : int;
  tm_ack_bytes : int;
}
(** The full reliable-transport configuration — every field that can
    change retransmission timing or wire accounting is recorded, so a
    tuned-transport recording replays under the exact same transport. *)

type meta = {
  m_app : string;
  m_scale : string;  (** "paper", "small" or "large" *)
  m_nprocs : int;
  m_protocol : string;  (** {!Lrc.Config.protocol_name} *)
  m_detect : bool;
  m_first_race_only : bool;
  m_stores_from_diffs : bool;
  m_seed : int;
  m_net_seed : int option;
  m_drop : float;
  m_dup : float;
  m_reorder : float;
  m_reorder_window_ns : int;
  m_spike : float;
  m_spike_ns : int;
  m_partitions : (int * int * int * int) list;  (** a, b, from_ns, until_ns *)
  m_transport : transport_meta option;
  m_watchdog_ns : int option;
  m_gc_epochs : int option;  (** interval-GC cadence; [None] before v2 *)
  m_elide : bool;
      (** elide checks at statically race-free sites; [false] before v3.
          Only the flag is stored — the site set is re-derived from the
          app's binary at replay time *)
  m_backend : string;
      (** coherence backend id ("lrc", "mesi", "dragon"); ["lrc"] before
          v4 — every pre-v4 log was recorded by the DSM cluster *)
  m_cc_line_bytes : int;  (** cache geometry for the bus backends (v4+) *)
  m_cc_sets : int;
  m_cc_ways : int;
  m_sim_jobs : int option;
      (** schedule marker: [Some 1] for logs recorded on the sharded
          engine, since removed; [None] for every log written now (and
          everything before v5). [Core.Trace_run.replay] rejects a log
          carrying the marker; log-only reading accepts it. *)
}

val v1_transport_defaults : transport_meta
(** The transport defaults frozen at the v1 format: decoding a v1 log
    that ran the transport yields these with the recorded retry cap. *)

exception Corrupt of string
(** Raised by {!decode} on a malformed log. *)

type encoder

val encoder : meta -> encoder
(** Fresh encoder with the header and metadata already written. *)

val add : encoder -> time:int -> Event.t -> unit
(** Append one event. [time] is absolute simulated nanoseconds and must
    be monotone non-decreasing across calls (deltas are what's stored;
    a regression still round-trips, it just costs zigzag bytes). *)

val count : encoder -> int
val contents : encoder -> string

val encode : meta -> (int * Event.t) array -> string
(** One-shot encoding of a (time, event) stream. *)

type decoded = { meta : meta; events : (int * Event.t) array }

val decode : string -> decoded
(** Parse a complete log. Raises {!Corrupt} on bad magic, a truncated or
    garbled record, or a format version outside
    [[min_version, version]] — the error says explicitly whether the log
    is too old or too new, never a misleading field-level decode crash. *)

val event_bytes : Event.t -> int
(** Encoded size of one event record, excluding the time delta — used by
    [trace --stats]. *)
