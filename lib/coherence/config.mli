(** Cluster configuration: coherence protocol, detection switches, and
    replay/debug options. *)

type protocol =
  | Single_writer
      (** CVM's base protocol, used by the paper's prototype: one writable
          copy per page; ownership travels on write faults. *)
  | Multi_writer
      (** Twin/diff protocol (paper section 6.5): concurrent writers
          allowed; write summaries travel as word-level diffs. *)
  | Home_based
      (** Home-based LRC (HLRC): every page has a home that receives diff
          flushes at each release; faults fetch whole pages from the home,
          gated on a per-page version vector. *)
  | Seq_consistent
      (** No caching: every access goes to the home node. The reference
          system for the section 6.4 accuracy discussion (Figure 5). *)

type t = {
  backend : string;
      (** which coherence backend executes the run: ["lrc"] (the DSM
          cluster driven by [protocol]) or a snooping-bus cache backend
          (["mesi"], ["dragon"]). Resolved by [Backends.create]. *)
  protocol : protocol;
  detect : bool;  (** instrument accesses and run detection at barriers *)
  first_race_only : bool;  (** section 6.4: report only first-epoch races *)
  stores_from_diffs : bool;
      (** section 6.5: under the multi-writer protocol, take write bitmaps
          from diffs instead of store instrumentation — cheaper, but a
          same-value overwrite becomes invisible *)
  retain_sites : bool;
      (** Section 6.1's single-run alternative: retain a site ("program
          counter") per accessed word per interval, so races resolve to
          source sites without a second run — at a storage and runtime
          cost the paper deemed prohibitive. Measured by the
          [site-retention] ablation. *)
  record_trace : bool;  (** log every access/sync event for the oracle *)
  replay : Sync_trace.t option;  (** enforce a recorded lock-grant order *)
  record_sync : bool;  (** record lock-grant order for later replay *)
  seed : int;
  fault : Sim.Fault.plan;
      (** wire fault plan (drops, duplicates, reorder, delay spikes,
          partitions); an active plan requires [transport] *)
  transport : Sim.Transport.config option;
      (** [Some cfg]: run the reliable transport (sequence numbers,
          cumulative acks, capped exponential-backoff retransmission)
          between the DSM and the wire *)
  watchdog_ns : int option;
      (** virtual-time stall budget: if this many simulated nanoseconds
          pass without any process making progress, the run aborts with a
          structured {!Sim.Engine.Deadlock} diagnosis *)
  gc_epochs : int option;
      (** interval garbage collection (TreadMarks-style lineage GC): every
          [k] barrier epochs, validate all invalid pages and, one barrier
          later, drop the diffs no reachable write notice can request any
          more. [None] (the default) retains every diff for the run. *)
  net_seed : int option;
      (** separate seed for the network RNG streams (jitter and fault
          plan); [None] derives them from [seed] *)
  tracer : Trace.Sink.t option;
      (** record/replay event sink: every sim- and protocol-level event
          the run produces is emitted into it — a {!Trace.Sink.recorder}
          when recording, a {!Trace.Replay.verifier} when replaying *)
  elide_sites : string list option;
      (** instrumentation elision driven by the static MHP analysis:
          [None] (the default) keeps every runtime check; [Some sites]
          skips the per-access race check at exactly those sites (sound
          only for statically race-free sites); [Some []] asks the
          driver to derive the set from the app's binary via
          [Instrument.Mhp.race_free_sites] *)
  cc_line_bytes : int;
      (** bus backends: cache line size in bytes (a power of two, a
          multiple of the word size) *)
  cc_sets : int;  (** bus backends: cache sets per processor *)
  cc_ways : int;  (** bus backends: associativity *)
}

val default : t
(** Single-writer protocol, detection on, everything else off. *)

val protocol_name : protocol -> string

val protocol_of_name : string -> protocol
(** Inverse of {!protocol_name} — the stable spelling used by
    serialized task descriptions. Raises [Invalid_argument]
    otherwise. *)
