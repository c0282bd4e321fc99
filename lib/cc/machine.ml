(* A snooping-bus cache-coherent multiprocessor running the same online
   race detector as the LRC DSM cluster.

   One simulated machine: [nprocs] processors, each with a private
   set-associative cache ({!Cache}), sharing one memory image over a
   single split-transaction bus. The bus serializes everything — an
   atomic snooping bus gives sequential consistency — so data values are
   always coherent by construction and the caches model *cost* and
   *traffic* only: hits, fills, invalidations, updates, writebacks. Two
   write policies are provided: MESI (write-invalidate) and Dragon
   (write-update).

   Detection is the DSM side's own code: each processor is a
   {!Coherence.Proc} (vector-clock intervals delimited by
   acquires/releases/barriers, word-level access bitmaps snapshotted at
   interval close), and the paper's steps 2-5 run at each barrier by the
   last arriver through the same {!Racedetect.Detector} functions and
   charges. This module keeps only the caches, the bus and the two
   write policies. The crucial difference the bench
   pipeline measures: here bitmaps are collected through shared memory
   (no messages, no extra barrier round on a wire), and consistency
   traffic is bus transactions instead of DSM messages.

   Deliberate scope limits versus the DSM cluster: no fault injection or
   reliable transport (there is no lossy wire on a bus), no multi-writer
   diffs ([stores_from_diffs] is ignored), no [retain_sites], no
   interval GC, and no lock-grant replay ([Config.replay] is ignored —
   the machine is deterministic, so re-running reproduces the order;
   [record_sync] still records it). *)

module Proc = Coherence.Proc

type protocol = Mesi | Dragon

let protocol_name = function Mesi -> "mesi" | Dragon -> "dragon"

(* Line states of both protocols in one type so the cache structure is
   shared. MESI uses I/S/E/M; Dragon uses I/E/Sc/Sm/M (no S). *)
type lstate =
  | L_inv
  | L_shared  (* MESI S: shared, memory current *)
  | L_excl  (* MESI E / Dragon E: sole copy, clean *)
  | L_mod  (* MESI M / Dragon M: sole copy, dirty *)
  | L_shared_clean  (* Dragon Sc *)
  | L_shared_dirty  (* Dragon Sm: shared, this cache is the owner *)

let is_valid s = s <> L_inv

type lock_state = {
  mutable holder : int option;
  waiting : int Queue.t;  (* proc ids, FCFS in bus-grant order *)
  mutable release_vc : Proto.Vclock.t option;
      (* the machine-wide last releaser's clock: along a mutual-exclusion
         grant chain each release clock dominates everything merged
         before it, so overwriting equals the oracle's accumulation *)
}

type t = {
  env : Proc.env;
  protocol : protocol;
  nprocs : int;
  line_shift : int;  (* addr lsr line_shift = global line number *)
  line_words : int;
  pages : Mem.Page.t array;  (* the single coherent memory image *)
  procs : Proc.t array;
  caches : lstate Cache.t array;  (* per processor *)
  pids : Sim.Engine.pid array;  (* per processor, set at spawn *)
  mutable bus_busy_until : int;  (* FCFS arbitration in virtual time *)
  locks : (int, lock_state) Hashtbl.t;
  bitmap_store : Racedetect.Detector.bitmap_store;
      (* machine-global: the detector reads bitmaps through shared memory
         instead of a wire round, which is the CC-vs-DSM separation *)
  mutable barrier_arrivals : int list;  (* proc ids, arrival order reversed *)
  mutable barrier_intervals : Proto.Interval.t list;
}

let detect_on m = m.env.Proc.cfg.Coherence.Config.detect

let close_interval m (p : Proc.t) =
  (* On the bus the write notices come from the write bitmaps: there are
     no page faults to record them. An elided site therefore contributes
     no page entry, which is sound because elided sites are statically
     race-free. *)
  let interval = p.Proc.cur in
  interval.Proto.Interval.closed <- true;
  if detect_on m then
    Proc.snapshot_bitmaps p m.bitmap_store interval
      ~on_written:(Proto.Interval.add_write_page interval);
  Proc.interval_closed p interval

(* ------------------------------------------------------------------ *)
(* The bus                                                              *)

type bus_kind = B_rd | B_rdx | B_upgr | B_upd | B_wb | B_sync

let trace_kind = function
  | B_rd -> Trace.Event.Bus_rd
  | B_rdx -> Trace.Event.Bus_rdx
  | B_upgr -> Trace.Event.Bus_upgr
  | B_upd -> Trace.Event.Bus_upd
  | B_wb -> Trace.Event.Bus_wb
  | B_sync -> Trace.Event.Bus_sync

(* One bus transaction by processor [p]. Called after the requesting
   processor has already applied the snoop-side state changes — the
   transaction is atomic at arbitration, and the wait models bus
   occupancy. FCFS arbitration is a single virtual-time high-water mark;
   contention appears as [start - now]. *)
let bus m p ~kind ~line ~words ~supply =
  Proc.flush_time p;
  let stats = m.env.Proc.stats in
  stats.Sim.Stats.bus_transactions <- stats.Sim.Stats.bus_transactions + 1;
  stats.Sim.Stats.bus_words <- stats.Sim.Stats.bus_words + words;
  (match kind with
  | B_rd -> stats.Sim.Stats.bus_reads <- stats.Sim.Stats.bus_reads + 1
  | B_rdx -> stats.Sim.Stats.bus_read_x <- stats.Sim.Stats.bus_read_x + 1
  | B_upgr -> stats.Sim.Stats.bus_upgrades <- stats.Sim.Stats.bus_upgrades + 1
  | B_upd -> stats.Sim.Stats.bus_updates <- stats.Sim.Stats.bus_updates + 1
  | B_wb -> stats.Sim.Stats.bus_writebacks <- stats.Sim.Stats.bus_writebacks + 1
  | B_sync -> stats.Sim.Stats.bus_syncs <- stats.Sim.Stats.bus_syncs + 1);
  if Proc.tracing p then
    Proc.emit_sink p (Trace.Event.Bus { proc = p.Proc.id; kind = trace_kind kind; line });
  let supply_ns =
    match supply with
    | `Mem -> m.env.Proc.cost.Sim.Cost.bus_mem_ns
    | `Cache -> m.env.Proc.cost.Sim.Cost.bus_c2c_ns
    | `None -> 0.0
  in
  let dur_ns =
    m.env.Proc.cost.Sim.Cost.bus_arb_ns
    +. (m.env.Proc.cost.Sim.Cost.bus_word_ns *. float_of_int words)
    +. supply_ns
  in
  let dur = max 1 (int_of_float dur_ns) in
  let now = Sim.Engine.now m.env.Proc.engine in
  let start = max now m.bus_busy_until in
  m.bus_busy_until <- start + dur;
  Sim.Engine.advance (start + dur - now)

let others m (p : Proc.t) f =
  Array.iteri (fun id cache -> if id <> p.Proc.id then f cache) m.caches

let line_of m addr = addr lsr m.line_shift

(* Claim a cache slot for [line]; a displaced dirty line pays a
   writeback transaction (clean evictions are silent). *)
let fill_line m p ~line ~state =
  let slot, evicted = Cache.fill m.caches.(p.Proc.id) ~line ~is_valid in
  slot.state <- state;
  match evicted with
  | None -> ()
  | Some { Cache.victim_tag; victim_state } ->
      m.env.Proc.stats.Sim.Stats.cache_evictions <- m.env.Proc.stats.Sim.Stats.cache_evictions + 1;
      (match victim_state with
      | L_mod | L_shared_dirty ->
          bus m p ~kind:B_wb ~line:victim_tag ~words:m.line_words ~supply:`Mem
      | _ -> ())

(* --- MESI ---------------------------------------------------------- *)

let mesi_read_miss m p ~line =
  let shared = ref false in
  others m p (fun cache ->
      match Cache.probe cache ~line ~is_valid with
      | Some slot ->
          shared := true;
          (* an M supplier flushes to memory as it downgrades; the flush
             rides the same fill transaction (Illinois-style), so it is
             not counted as a separate writeback *)
          (match slot.state with
          | L_mod | L_excl -> slot.state <- L_shared
          | _ -> ())
      | None -> ());
  fill_line m p ~line ~state:(if !shared then L_shared else L_excl);
  bus m p ~kind:B_rd ~line ~words:m.line_words
    ~supply:(if !shared then `Cache else `Mem)

let mesi_write_hit m p slot ~line =
  match slot.Cache.state with
  | L_mod -> ()
  | L_excl -> slot.Cache.state <- L_mod
  | L_shared ->
      others m p (fun cache ->
          match Cache.probe cache ~line ~is_valid with
          | Some s ->
              s.Cache.state <- L_inv;
              m.env.Proc.stats.Sim.Stats.invalidations <- m.env.Proc.stats.Sim.Stats.invalidations + 1
          | None -> ());
      slot.Cache.state <- L_mod;
      bus m p ~kind:B_upgr ~line ~words:0 ~supply:`None
  | L_inv | L_shared_clean | L_shared_dirty -> assert false

let mesi_write_miss m p ~line =
  let shared = ref false in
  others m p (fun cache ->
      match Cache.probe cache ~line ~is_valid with
      | Some slot ->
          shared := true;
          slot.Cache.state <- L_inv;
          m.env.Proc.stats.Sim.Stats.invalidations <- m.env.Proc.stats.Sim.Stats.invalidations + 1
      | None -> ());
  fill_line m p ~line ~state:L_mod;
  bus m p ~kind:B_rdx ~line ~words:m.line_words
    ~supply:(if !shared then `Cache else `Mem)

(* --- Dragon -------------------------------------------------------- *)

let dragon_read_miss m p ~line =
  let shared = ref false in
  others m p (fun cache ->
      match Cache.probe cache ~line ~is_valid with
      | Some slot ->
          shared := true;
          (match slot.Cache.state with
          | L_mod -> slot.Cache.state <- L_shared_dirty  (* keeps ownership *)
          | L_excl -> slot.Cache.state <- L_shared_clean
          | _ -> ())
      | None -> ());
  fill_line m p ~line ~state:(if !shared then L_shared_clean else L_excl);
  bus m p ~kind:B_rd ~line ~words:m.line_words
    ~supply:(if !shared then `Cache else `Mem)

let dragon_update m p slot ~line =
  (* write to a shared line: broadcast the word; every holder applies it
     in place, the previous owner demotes, the writer becomes owner. If
     the other copies have meanwhile been evicted, silently promote *)
  let sharers = ref 0 in
  others m p (fun cache ->
      match Cache.probe cache ~line ~is_valid with
      | Some s ->
          incr sharers;
          m.env.Proc.stats.Sim.Stats.updates_applied <- m.env.Proc.stats.Sim.Stats.updates_applied + 1;
          if s.Cache.state = L_shared_dirty then s.Cache.state <- L_shared_clean
      | None -> ());
  if !sharers = 0 then slot.Cache.state <- L_mod
  else begin
    slot.Cache.state <- L_shared_dirty;
    bus m p ~kind:B_upd ~line ~words:1 ~supply:`None
  end

let dragon_write_hit m p slot ~line =
  match slot.Cache.state with
  | L_mod -> ()
  | L_excl -> slot.Cache.state <- L_mod
  | L_shared_clean | L_shared_dirty -> dragon_update m p slot ~line
  | L_inv | L_shared -> assert false

let dragon_write_miss m p ~line =
  dragon_read_miss m p ~line;
  match Cache.find m.caches.(p.Proc.id) ~line ~is_valid with
  | Some slot -> dragon_write_hit m p slot ~line
  | None -> assert false

(* --- protocol-independent access path ------------------------------ *)

let cache_read m p addr =
  let line = line_of m addr in
  Proc.charge_local p m.env.Proc.cost.Sim.Cost.cache_hit_ns;
  match Cache.find m.caches.(p.Proc.id) ~line ~is_valid with
  | Some _ -> m.env.Proc.stats.Sim.Stats.cache_hits <- m.env.Proc.stats.Sim.Stats.cache_hits + 1
  | None ->
      m.env.Proc.stats.Sim.Stats.cache_misses <- m.env.Proc.stats.Sim.Stats.cache_misses + 1;
      (match m.protocol with
      | Mesi -> mesi_read_miss m p ~line
      | Dragon -> dragon_read_miss m p ~line)

let cache_write m p addr =
  let line = line_of m addr in
  Proc.charge_local p m.env.Proc.cost.Sim.Cost.cache_hit_ns;
  match Cache.find m.caches.(p.Proc.id) ~line ~is_valid with
  | Some slot ->
      m.env.Proc.stats.Sim.Stats.cache_hits <- m.env.Proc.stats.Sim.Stats.cache_hits + 1;
      (match m.protocol with
      | Mesi -> mesi_write_hit m p slot ~line
      | Dragon -> dragon_write_hit m p slot ~line)
  | None ->
      m.env.Proc.stats.Sim.Stats.cache_misses <- m.env.Proc.stats.Sim.Stats.cache_misses + 1;
      (match m.protocol with
      | Mesi -> mesi_write_miss m p ~line
      | Dragon -> dragon_write_miss m p ~line)

(* ------------------------------------------------------------------ *)
(* Shared-memory accesses                                               *)

(* The detector's half of an access, then the cache's; returns the page
   of the memory image the access touches. *)
let read_access m p ~site addr =
  Proc.check_addr p addr;
  let page = Proc.page_of p addr in
  ignore (Proc.read_note p ~site addr page (Proc.word_of p addr));
  cache_read m p addr;
  Array.unsafe_get m.pages page

let write_access m p ~site addr =
  Proc.check_addr p addr;
  let page = Proc.page_of p addr in
  ignore (Proc.write_note p ~site addr page (Proc.word_of p addr));
  cache_write m p addr;
  Array.unsafe_get m.pages page

let read_word m p ?(site = "?") addr =
  Mem.Page.get_int64 (read_access m p ~site addr) (Proc.word_of p addr)

let read_word_int m p ?(site = "?") addr =
  Mem.Page.get_int (read_access m p ~site addr) (Proc.word_of p addr)

let read_word_float m p ?(site = "?") addr =
  Mem.Page.get_float (read_access m p ~site addr) (Proc.word_of p addr)

let write_word m p ?(site = "?") addr value =
  Mem.Page.set_int64 (write_access m p ~site addr) (Proc.word_of p addr) value

let write_word_int m p ?(site = "?") addr value =
  Mem.Page.set_int (write_access m p ~site addr) (Proc.word_of p addr) value

let write_word_float m p ?(site = "?") addr value =
  Mem.Page.set_float (write_access m p ~site addr) (Proc.word_of p addr) value

(* ------------------------------------------------------------------ *)
(* Locks: a bus read-modify-write plus an FCFS grant queue              *)

let lock_state m lock =
  match Hashtbl.find_opt m.locks lock with
  | Some l -> l
  | None ->
      let l = { holder = None; waiting = Queue.create (); release_vc = None } in
      Hashtbl.add m.locks lock l;
      l

let grant m (p : Proc.t) l lock_id =
  (match m.env.Proc.recorder with
  | Some recorder -> Coherence.Sync_trace.record recorder ~lock:lock_id ~grantee:p.Proc.id
  | None -> ());
  close_interval m p;
  (match l.release_vc with
  | Some vc -> Proto.Vclock.merge_into ~dst:p.Proc.vc vc
  | None -> ());
  Proc.open_interval p;
  Proc.emit_trace p (Racedetect.Oracle.Acquire lock_id);
  if Proc.tracing p then
    Proc.emit_sink p
      (Trace.Event.Lock_acquire
         { proc = p.Proc.id; lock = lock_id; vc = Proto.Vclock.copy p.Proc.vc })

let lock m (p : Proc.t) lock_id =
  Proc.flush_time p;
  m.env.Proc.stats.Sim.Stats.lock_acquires <- m.env.Proc.stats.Sim.Stats.lock_acquires + 1;
  let l = lock_state m lock_id in
  if l.holder = Some p.Proc.id then
    invalid_arg "Machine.lock: lock already held (not reentrant)";
  bus m p ~kind:B_sync ~line:lock_id ~words:1 ~supply:`Mem;
  (match l.holder with
  | None -> l.holder <- Some p.Proc.id
  | Some _ ->
      Queue.add p.Proc.id l.waiting;
      Sim.Engine.block ~label:(Printf.sprintf "grant of lock %d (bus)" lock_id);
      (* the releaser installed us as holder before waking us *)
      assert (l.holder = Some p.Proc.id));
  grant m p l lock_id

let unlock m (p : Proc.t) lock_id =
  Proc.flush_time p;
  let l = lock_state m lock_id in
  if l.holder <> Some p.Proc.id then invalid_arg "Machine.unlock: lock not held";
  bus m p ~kind:B_sync ~line:lock_id ~words:1 ~supply:`Mem;
  close_interval m p;
  l.release_vc <- Some (Proto.Vclock.copy p.Proc.vc);
  Proc.open_interval p;
  Proc.emit_trace p (Racedetect.Oracle.Release lock_id);
  if Proc.tracing p then
    Proc.emit_sink p
      (Trace.Event.Lock_release
         { proc = p.Proc.id; lock = lock_id; vc = Proto.Vclock.copy p.Proc.vc });
  match Queue.take_opt l.waiting with
  | Some next ->
      l.holder <- Some next;
      Sim.Engine.wake m.env.Proc.engine m.pids.(next)
  | None -> l.holder <- None

(* ------------------------------------------------------------------ *)
(* Barrier: last arriver runs detection centrally, then releases all    *)

let run_detection m (p : Proc.t) =
  let env = m.env in
  let epoch = p.Proc.epoch in
  let epoch_intervals =
    List.filter
      (fun iv -> iv.Proto.Interval.epoch = epoch)
      (List.rev m.barrier_intervals)
  in
  let intervals_ns, entries =
    Racedetect.Detector.charged_check_list ~cost:env.Proc.cost ~stats:env.Proc.stats
      ?probe:(Proc.check_entry_probe p) epoch_intervals
  in
  let bitmaps_ns, races =
    Racedetect.Detector.charged_races ~cost:env.Proc.cost ~stats:env.Proc.stats
      ~geometry:env.Proc.geometry ~epoch
      ~source:(Racedetect.Detector.stored_pair env.Proc.geometry m.bitmap_store)
      entries
  in
  (* the last arriver performs the detection serially before anyone is
     released, like the DSM barrier master *)
  Sim.Engine.advance (int_of_float (intervals_ns +. bitmaps_ns));
  races

let release_barrier m (p : Proc.t) =
  let entered = p.Proc.epoch in
  Proc.report_races p (if detect_on m then run_detection m p else []);
  let merged = Proto.Vclock.create m.nprocs in
  Array.iter (fun (q : Proc.t) -> Proto.Vclock.merge_into ~dst:merged q.Proc.vc) m.procs;
  Array.iter
    (fun (q : Proc.t) ->
      Proto.Vclock.merge_into ~dst:q.Proc.vc merged;
      q.Proc.epoch <- entered + 1;
      Proc.open_interval q;
      if Proc.tracing q then
        Proc.emit_sink q
          (Trace.Event.Barrier_leave
             { proc = q.Proc.id; epoch = entered; vc = Proto.Vclock.copy q.Proc.vc }))
    m.procs;
  Hashtbl.reset m.bitmap_store;
  let arrivals = m.barrier_arrivals in
  m.barrier_arrivals <- [];
  m.barrier_intervals <- [];
  List.iter
    (fun qid -> if qid <> p.Proc.id then Sim.Engine.wake m.env.Proc.engine m.pids.(qid))
    arrivals

let barrier m (p : Proc.t) =
  Proc.flush_time p;
  Proc.emit_sink p (Trace.Event.Barrier_enter { proc = p.Proc.id; epoch = p.Proc.epoch });
  (* arrival is a fetch-and-increment on the barrier word *)
  bus m p ~kind:B_sync ~line:0 ~words:1 ~supply:`Mem;
  close_interval m p;
  Proc.emit_trace p Racedetect.Oracle.Barrier;
  m.barrier_arrivals <- p.Proc.id :: m.barrier_arrivals;
  m.barrier_intervals <- List.rev_append p.Proc.my_closed m.barrier_intervals;
  p.Proc.my_closed <- [];
  if List.length m.barrier_arrivals < m.nprocs then
    Sim.Engine.block ~label:"barrier release (bus)"
  else release_barrier m p

(* ------------------------------------------------------------------ *)
(* Construction and the Backend packaging                               *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let shift_of n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(cost = Sim.Cost.default) ?(cfg = Coherence.Config.default) ~protocol
    ~nprocs ~pages () =
  if nprocs <= 0 then invalid_arg "Machine.create: need at least one processor";
  if Sim.Fault.active cfg.Coherence.Config.fault then
    invalid_arg
      "Machine.create: fault injection needs the DSM backend (a snooping bus has no \
       lossy wire)";
  if cfg.Coherence.Config.transport <> None then
    invalid_arg
      "Machine.create: the reliable transport needs the DSM backend (a snooping bus \
       has no lossy wire)";
  let line_bytes = cfg.Coherence.Config.cc_line_bytes in
  let word_size = cost.Sim.Cost.word_size in
  if not (is_pow2 line_bytes) || line_bytes < word_size then
    invalid_arg "Machine.create: cc_line_bytes must be a power of two >= the word size";
  if line_bytes > cost.Sim.Cost.page_size then
    invalid_arg "Machine.create: cc_line_bytes must not exceed the page size";
  if cfg.Coherence.Config.cc_ways <= 0 then
    invalid_arg "Machine.create: cc_ways must be positive";
  let env = Proc.create_env ~cost ~cfg ~check_stores:true ~pages in
  let geometry = env.Proc.geometry in
  let m =
    {
      env;
      protocol;
      nprocs;
      line_shift = shift_of line_bytes;
      line_words = line_bytes / word_size;
      pages =
        Array.init geometry.Mem.Geometry.pages (fun _ ->
            Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size
              ~word_size:geometry.Mem.Geometry.word_size);
      procs = Array.init nprocs (fun id -> Proc.create env ~id ~nprocs);
      caches =
        Array.init nprocs (fun _ ->
            Cache.create ~sets:cfg.Coherence.Config.cc_sets ~ways:cfg.Coherence.Config.cc_ways
              ~invalid:L_inv);
      pids = Array.init nprocs Fun.id;
      bus_busy_until = 0;
      locks = Hashtbl.create 16;
      bitmap_store = Hashtbl.create 64;
      barrier_arrivals = [];
      barrier_intervals = [];
    }
  in
  Sim.Engine.add_diagnostic env.Proc.engine (fun () ->
      Hashtbl.fold
        (fun lock l acc ->
          match l.holder with
          | Some holder ->
              Printf.sprintf "lock %d: held by p%d, %d waiting" lock holder
                (Queue.length l.waiting)
              :: acc
          | None -> acc)
        m.locks
        [ Printf.sprintf "barrier: %d/%d arrived" (List.length m.barrier_arrivals) nprocs ]);
  m

let view m (p : Proc.t) =
  {
    Coherence.Node.id = p.Proc.id;
    nprocs = m.nprocs;
    geometry = m.env.Proc.geometry;
    malloc = Proc.malloc p;
    read_word = (fun ?site addr -> read_word m p ?site addr);
    write_word = (fun ?site addr value -> write_word m p ?site addr value);
    read_word_int = (fun ?site addr -> read_word_int m p ?site addr);
    write_word_int = (fun ?site addr value -> write_word_int m p ?site addr value);
    read_word_float = (fun ?site addr -> read_word_float m p ?site addr);
    write_word_float = (fun ?site addr value -> write_word_float m p ?site addr value);
    lock = (fun l -> lock m p l);
    unlock = (fun l -> unlock m p l);
    barrier = (fun () -> barrier m p);
    compute = Proc.compute p;
    idle = Proc.idle p;
    touch_private = Proc.touch_private p;
  }

let run m body =
  Array.iteri
    (fun id p -> m.pids.(id) <- Sim.Engine.spawn m.env.Proc.engine (fun _pid -> body (view m p)))
    m.procs;
  Sim.Engine.run m.env.Proc.engine

let backend ?cost ?cfg ~protocol ~nprocs ~pages () =
  let m = create ?cost ?cfg ~protocol ~nprocs ~pages () in
  Coherence.Backend.make m.env ~name:(protocol_name protocol) m.procs
    ~alloc:(Proc.alloc m.procs ~who:"Machine.alloc")
    ~run:(run m)
    ~memory_checksum:(fun () ->
      (* the bus machine's memory is the coherent copy of every page *)
      Proc.memory_digest m.env (fun page -> Some (Mem.Page.raw m.pages.(page))))
