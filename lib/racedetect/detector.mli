(** The paper's online race-detection algorithm (section 4, steps 2-5) as
    pure functions over interval records. The LRC barrier master drives
    them at each global synchronization point. *)

type bitmap_pair = { reads : Mem.Bitmap.t; writes : Mem.Bitmap.t }

type bitmap_source = Proto.Interval.id -> page:int -> bitmap_pair
(** How the master obtains the word-level access bitmaps for an interval
    and page on the check list (in the full system, via the extra barrier
    round). *)

type bitmap_store = (Proto.Interval.id * int, bitmap_pair) Hashtbl.t
(** Frozen bitmaps keyed by (interval, page). *)

val empty_bitmap_pair : Mem.Geometry.t -> bitmap_pair
(** All-zero read and write bitmaps of one page. *)

val stored_pair : Mem.Geometry.t -> bitmap_store -> bitmap_source
(** The stored pair, or {!empty_bitmap_pair} for an (interval, page) that
    recorded no access. *)

val concurrent_pairs :
  ?stats:Sim.Stats.t -> Proto.Interval.t list -> (Proto.Interval.t * Proto.Interval.t) list
(** Step 2: all cross-processor concurrent pairs among the epoch's
    intervals. Each comparison is the constant-time version-vector check;
    the count feeds the O(i^2 p^2) bound of the paper. *)

val concurrent_check_list :
  ?stats:Sim.Stats.t ->
  ?probe:(Checklist.entry -> unit) ->
  Proto.Interval.t list ->
  int * Checklist.entry list
(** Steps 2 and 3 fused: same comparisons, winnowing, order and statistics
    as {!concurrent_pairs} piped into {!check_list}, but the intermediate
    concurrent-pair list is never built. Returns the concurrent-pair
    count alongside the check list. *)

val overlapping_pages_linear :
  npages:int -> Proto.Interval.t -> Proto.Interval.t -> int list
(** Section 6.2's optimization: page lists as bitmaps, so the overlap of a
    concurrent pair costs time linear in the number of pages in the system
    instead of quadratic in the list lengths. Same result as
    {!Proto.Interval.overlapping_pages}. *)

val check_list :
  ?stats:Sim.Stats.t ->
  ?probe:(Checklist.entry -> unit) ->
  (Proto.Interval.t * Proto.Interval.t) list ->
  Checklist.entry list
(** Step 3: winnow concurrent pairs to those whose page lists overlap
    (write-write, or read in one and written in the other). [probe]
    observes every retained entry (the trace recorder's hook). *)

val races_of_entry :
  ?stats:Sim.Stats.t ->
  geometry:Mem.Geometry.t ->
  epoch:int ->
  source:bitmap_source ->
  Checklist.entry ->
  Proto.Race.t list
(** Step 5: compare word-level bitmaps for one check-list entry; every
    overlapping word is a data race (true sharing); disjoint words are
    false sharing and produce nothing. *)

val charged_check_list :
  cost:Sim.Cost.t ->
  stats:Sim.Stats.t ->
  ?probe:(Checklist.entry -> unit) ->
  Proto.Interval.t list ->
  float * Checklist.entry list
(** Steps 2-3 as a barrier runs them: {!concurrent_check_list}, with
    [vv_compare_ns] per interval comparison plus 200 ns per concurrent
    pair charged to {!Sim.Stats.Intervals}. Returns that cost in ns with
    the check list. *)

val charged_races :
  cost:Sim.Cost.t ->
  stats:Sim.Stats.t ->
  geometry:Mem.Geometry.t ->
  epoch:int ->
  source:bitmap_source ->
  Checklist.entry list ->
  float * Proto.Race.t list
(** Step 5 over a whole check list: the deduplicated races of every
    entry, with [bitmap_word_ns] for three word passes over each compared
    page pair charged to {!Sim.Stats.Bitmaps}. Returns that cost in ns
    with the races. *)

val first_races : Proto.Race.t list -> Proto.Race.t list
(** Section 6.4's "first race" filter: keep only races of the earliest racy
    barrier epoch (races in later epochs are necessarily affected). *)
