(* Cluster configuration: which coherence protocol to run, whether the
   race-detection machinery is active, and debugging/replay switches. *)

type protocol =
  | Single_writer
      (* CVM's base protocol, used in the paper's prototype: one writable
         copy per page; ownership travels on write faults *)
  | Multi_writer
      (* twin/diff protocol (paper section 6.5): concurrent writers allowed;
         write summaries travel as word-level diffs *)
  | Home_based
      (* home-based LRC (HLRC): every page has a home that receives diff
         flushes at each release; faults fetch whole pages from the home,
         gated on a per-page version vector *)
  | Seq_consistent
      (* no caching: every access goes to the home node; the reference
         system for the section 6.4 accuracy discussion (Figure 5) *)

type t = {
  backend : string;
      (* which coherence backend executes the run: "lrc" (the DSM cluster
         with the [protocol] below) or a snooping-bus cache backend
         ("mesi", "dragon"). Resolved by [Backends.create]. *)
  protocol : protocol;
  detect : bool;  (* instrument accesses and run detection at barriers *)
  first_race_only : bool;  (* section 6.4: report only first-epoch races *)
  stores_from_diffs : bool;
      (* section 6.5: under the multi-writer protocol, take write bitmaps
         from diffs instead of store instrumentation (cheaper, but a write
         of an identical value becomes invisible) *)
  retain_sites : bool;
      (* section 6.1's single-run alternative: keep a program-counter
         (site) per accessed word per interval so races resolve to source
         sites without a second run — at a storage and runtime cost *)
  record_trace : bool;  (* log every access/sync event for the oracle *)
  replay : Sync_trace.t option;  (* enforce a recorded lock-grant order *)
  record_sync : bool;  (* record lock-grant order for later replay *)
  seed : int;
  fault : Sim.Fault.plan;
      (* wire fault plan (drops/dups/reorder/partitions); requires the
         transport when active *)
  transport : Sim.Transport.config option;
      (* Some: run the reliable transport (seq numbers, acks,
         retransmission) between the DSM and the wire *)
  watchdog_ns : int option;
      (* virtual-time stall budget for the engine's deadlock watchdog *)
  gc_epochs : int option;
      (* interval garbage collection (TreadMarks-style lineage GC): every k
         barrier epochs, validate all invalid pages (forcing the pending
         diffs to be fetched) and, one barrier later, drop the diffs no
         reachable write notice can request any more. Bounds diff storage
         on long multi-writer runs at the cost of extra validation traffic.
         None (the default) keeps every diff for the whole run. *)
  net_seed : int option;
      (* separate seed for the network RNGs (jitter + faults); defaults
         to [seed] so existing runs are unchanged *)
  tracer : Trace.Sink.t option;
      (* record/replay event sink: every sim- and protocol-level event is
         emitted into it (recorder, replay verifier, or a tee of both) *)
  elide_sites : string list option;
      (* instrumentation elision driven by the static MHP analysis:
         None (the default) keeps every runtime check; Some sites skips
         the per-access race check at exactly those sites (they must be
         statically proven race-free for reports to be unchanged);
         Some [] asks the driver to derive the set from the app's binary
         via Instrument.Mhp.race_free_sites *)
  cc_line_bytes : int;
      (* bus backends: cache line size in bytes (a power of two, a
         multiple of the word size) *)
  cc_sets : int;  (* bus backends: cache sets per processor *)
  cc_ways : int;  (* bus backends: associativity *)
}

let default =
  {
    backend = "lrc";
    protocol = Single_writer;
    detect = true;
    first_race_only = false;
    stores_from_diffs = false;
    retain_sites = false;
    record_trace = false;
    replay = None;
    record_sync = false;
    seed = 42;
    fault = Sim.Fault.none;
    transport = None;
    watchdog_ns = None;
    gc_epochs = None;
    net_seed = None;
    tracer = None;
    elide_sites = None;
    cc_line_bytes = 64;
    cc_sets = 64;
    cc_ways = 2;
  }

let protocol_name = function
  | Single_writer -> "single-writer"
  | Multi_writer -> "multi-writer"
  | Home_based -> "home-based"
  | Seq_consistent -> "sequential-consistency"

let protocol_of_name = function
  | "single-writer" -> Single_writer
  | "multi-writer" -> Multi_writer
  | "home-based" -> Home_based
  | "sequential-consistency" -> Seq_consistent
  | other -> invalid_arg (Printf.sprintf "Config.protocol_of_name: unknown protocol %S" other)
