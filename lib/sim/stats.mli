(** Run-wide statistics, shared by every node of a simulated cluster.

    The counters feed the paper's Tables 1 and 3; the per-category
    overhead charges feed Figure 3. A charge both advances simulated time
    at the charging processor and is recorded here, so the breakdown sums
    to the overhead actually observed. *)

type overhead_category =
  | Cvm_mods  (** extra structures + read-notice bandwidth *)
  | Proc_call  (** instrumentation procedure-call overhead *)
  | Access_check  (** shared/private discrimination + bitmap set *)
  | Intervals  (** concurrent-interval comparison at the barrier master *)
  | Bitmaps  (** extra barrier round + bitmap comparisons *)

val category_name : overhead_category -> string
val all_categories : overhead_category list

type t = {
  mutable messages : int;
  mutable fragments : int;
  mutable bytes : int;
  mutable read_notice_bytes : int;
  mutable baseline_bytes : int;
  mutable retransmits : int;  (** data frames re-sent after an RTO *)
  mutable rto_timeouts : int;  (** retransmission timer firings *)
  mutable dup_suppressed : int;  (** duplicate frames dropped at the receiver *)
  mutable frames_dropped : int;  (** wire frames lost to fault injection *)
  mutable frames_duplicated : int;  (** extra copies created by fault injection *)
  mutable acks_sent : int;  (** cumulative-ack frames *)
  mutable link_failures : int;  (** links that exhausted the retry cap *)
  mutable read_faults : int;
  mutable write_faults : int;
  mutable diffs_created : int;
  mutable diff_words : int;
  mutable diffs_gced : int;  (** diffs dropped by interval garbage collection *)
  mutable pages_fetched : int;
  mutable intervals_created : int;
  mutable interval_comparisons : int;
  mutable concurrent_pairs : int;
  mutable overlapping_pairs : int;
  mutable bitmaps_requested : int;
  mutable bitmaps_total : int;
  mutable bitmap_round_bytes : int;
  mutable intervals_in_overlap : int;
  mutable bitmap_comparisons : int;
  mutable shared_reads : int;
  mutable shared_writes : int;
  mutable private_accesses : int;
  mutable lock_acquires : int;
  mutable barriers : int;
  mutable races_reported : int;
  mutable site_entries : int;
  mutable elided_checks : int;
      (** runtime checks skipped at statically race-free sites *)
  mutable bus_transactions : int;
      (** snooping-bus backends: every arbitration-winning transaction *)
  mutable bus_reads : int;  (** read-miss line fills (BusRd) *)
  mutable bus_read_x : int;  (** write-miss fills with invalidation (BusRdX) *)
  mutable bus_upgrades : int;  (** S->M ownership upgrades, no data (BusUpgr) *)
  mutable bus_updates : int;  (** Dragon word broadcasts (BusUpd) *)
  mutable bus_writebacks : int;  (** dirty-line flushes to memory *)
  mutable bus_syncs : int;  (** lock/barrier read-modify-writes on the bus *)
  mutable bus_words : int;  (** data words moved over the bus *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;  (** valid lines displaced by a fill *)
  mutable invalidations : int;  (** remote copies killed by BusRdX/BusUpgr *)
  mutable updates_applied : int;  (** remote copies refreshed by BusUpd *)
  charges : float array;
}

val create : unit -> t

val charge : t -> overhead_category -> float -> unit
(** Attribute simulated nanoseconds of overhead to a category. *)

val charged : t -> overhead_category -> float
val total_charged : t -> float

val shared_accesses : t -> int
val instrumented_accesses : t -> int

val pp : Format.formatter -> t -> unit
