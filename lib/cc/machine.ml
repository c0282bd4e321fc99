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

   Detection is identical in structure to the DSM side: vector-clock
   intervals delimited by acquires/releases/barriers, word-level access
   bitmaps snapshotted at interval close, and the paper's steps 2-5 run
   at each barrier by the last arriver. The crucial difference the bench
   pipeline measures: here bitmaps are collected through shared memory
   (no messages, no extra barrier round on a wire), and consistency
   traffic is bus transactions instead of DSM messages.

   Deliberate scope limits versus the DSM cluster: no fault injection or
   reliable transport (there is no lossy wire on a bus), no multi-writer
   diffs ([stores_from_diffs] is ignored), no [retain_sites], no
   interval GC, and no lock-grant replay ([Config.replay] is ignored —
   the machine is deterministic, so re-running reproduces the order;
   [record_sync] still records it). *)

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

type proc = {
  id : int;
  cache : lstate Cache.t;
  debt : float array;  (* fractional-ns accumulator, flushed at sync/bus *)
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;
  mutable my_closed : Proto.Interval.t list;
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;  (* page -> bitmap, current interval *)
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  mutable pid : Sim.Engine.pid;
  mutable access_observer : Coherence.Backend.observer option;
  mutable alloc_next : int;
}

type t = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Coherence.Config.t;
  geometry : Mem.Geometry.t;
  symtab : Mem.Symtab.t;
  protocol : protocol;
  nprocs : int;
  line_shift : int;  (* addr lsr line_shift = global line number *)
  line_words : int;
  pages : Mem.Page.t array;  (* the single coherent memory image *)
  procs : proc array;
  mutable bus_busy_until : int;  (* FCFS arbitration in virtual time *)
  locks : (int, lock_state) Hashtbl.t;
  bitmap_store :
    (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
      (* machine-global: the detector reads bitmaps through shared memory
         instead of a wire round, which is the CC-vs-DSM separation *)
  races : Proto.Race.t list ref;
  trace : (int * Racedetect.Oracle.event) list ref;
  timed : (int * int * Racedetect.Oracle.event) list ref;
  recorder : Coherence.Sync_trace.recorder option;
  elide : Coherence.Elide.t;
  mutable epoch : int;
  mutable barrier_arrivals : int list;  (* proc ids, arrival order reversed *)
  mutable barrier_intervals : Proto.Interval.t list;
  mutable race_seen : bool;  (* for [first_race_only] *)
}

(* ------------------------------------------------------------------ *)
(* Time accounting (mirrors Lrc.Node: debt accumulates, flushes at
   synchronization and bus points)                                      *)

let charge_local p ns = Array.unsafe_set p.debt 0 (Array.unsafe_get p.debt 0 +. ns)

let charge_category m p category ns =
  Sim.Stats.charge m.stats category ns;
  charge_local p ns

let flush_time p =
  let debt = Array.unsafe_get p.debt 0 in
  if debt >= 1.0 then begin
    let ns = int_of_float debt in
    Array.unsafe_set p.debt 0 (debt -. float_of_int ns);
    Sim.Engine.advance ns
  end

(* ------------------------------------------------------------------ *)
(* Trace recording                                                      *)

let emit_trace m p event =
  if m.cfg.Coherence.Config.record_trace then begin
    m.trace := (p.id, event) :: !(m.trace);
    m.timed := (Sim.Engine.now m.engine, p.id, event) :: !(m.timed)
  end

let trace_read m p addr =
  if m.cfg.Coherence.Config.record_trace then
    emit_trace m p (Racedetect.Oracle.Read addr)

let trace_write m p addr =
  if m.cfg.Coherence.Config.record_trace then
    emit_trace m p (Racedetect.Oracle.Write addr)

let emit_sink m event =
  match m.cfg.Coherence.Config.tracer with
  | Some sink -> Trace.Sink.emit sink ~time:(Sim.Engine.now m.engine) event
  | None -> ()

let tracing m = m.cfg.Coherence.Config.tracer <> None

(* ------------------------------------------------------------------ *)
(* Interval lifecycle                                                   *)

let detect_on m = m.cfg.Coherence.Config.detect

let words_per_page m = Mem.Geometry.words_per_page m.geometry

let open_interval m p =
  Proto.Vclock.incr p.vc p.id;
  let index = Proto.Vclock.get p.vc p.id in
  let interval =
    Proto.Interval.create ~proc:p.id ~index ~vc:(Proto.Vclock.copy p.vc) ~epoch:m.epoch
  in
  p.cur <- interval;
  if tracing m then
    emit_sink m (Trace.Event.Interval_open { proc = p.id; index; epoch = m.epoch });
  m.stats.Sim.Stats.intervals_created <- m.stats.Sim.Stats.intervals_created + 1;
  charge_local p m.cost.Sim.Cost.interval_setup_ns

let snapshot_bitmaps m p interval =
  (* Freeze the closing interval's access bitmaps into the machine-global
     store and derive its page lists. On the bus backends the write-page
     list comes from the write bitmaps (there are no page faults to
     populate it); an elided site therefore contributes no page entry,
     which is sound because elided sites are statically race-free. *)
  let id = Proto.Interval.id interval in
  let pages = Hashtbl.create 8 in
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.read_bits;
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.write_bits;
  Hashtbl.iter
    (fun page () ->
      let reads =
        match Hashtbl.find_opt p.read_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page m)
      in
      let writes =
        match Hashtbl.find_opt p.write_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page m)
      in
      if Mem.Bitmap.any_set reads then Proto.Interval.add_read_page interval page;
      if Mem.Bitmap.any_set writes then Proto.Interval.add_write_page interval page;
      Hashtbl.replace m.bitmap_store (id, page)
        { Racedetect.Detector.reads; writes };
      m.stats.Sim.Stats.bitmaps_total <- m.stats.Sim.Stats.bitmaps_total + 1;
      charge_category m p Sim.Stats.Cvm_mods m.cost.Sim.Cost.notice_setup_ns)
    pages;
  Hashtbl.reset p.read_bits;
  Hashtbl.reset p.write_bits

let close_interval m p =
  let interval = p.cur in
  interval.Proto.Interval.closed <- true;
  if detect_on m then snapshot_bitmaps m p interval;
  p.my_closed <- interval :: p.my_closed;
  if tracing m then
    emit_sink m
      (Trace.Event.Interval_close
         {
           proc = p.id;
           index = (Proto.Interval.id interval).Proto.Interval.index;
           epoch = interval.Proto.Interval.epoch;
           write_pages = interval.Proto.Interval.write_pages;
           read_pages = interval.Proto.Interval.read_pages;
         });
  interval

(* ------------------------------------------------------------------ *)
(* Instrumentation (identical cost structure to the DSM side)           *)

let instrument m p page word kind =
  charge_category m p Sim.Stats.Proc_call m.cost.Sim.Cost.proc_call_ns;
  charge_category m p Sim.Stats.Access_check m.cost.Sim.Cost.access_check_ns;
  let table =
    match kind with Proto.Race.Read -> p.read_bits | Proto.Race.Write -> p.write_bits
  in
  let bitmap =
    match Hashtbl.find_opt table page with
    | Some bm -> bm
    | None ->
        let bm = Mem.Bitmap.create (words_per_page m) in
        Hashtbl.replace table page bm;
        bm
  in
  Mem.Bitmap.set bitmap word

let observe p ~site ~addr kind =
  match p.access_observer with Some f -> f ~site ~addr kind | None -> ()

let read_note m p ~site addr page word =
  charge_local p m.cost.Sim.Cost.instr_ns;
  m.stats.Sim.Stats.shared_reads <- m.stats.Sim.Stats.shared_reads + 1;
  if detect_on m then
    if Coherence.Elide.mem m.elide site then
      m.stats.Sim.Stats.elided_checks <- m.stats.Sim.Stats.elided_checks + 1
    else instrument m p page word Proto.Race.Read;
  observe p ~site ~addr Proto.Race.Read;
  trace_read m p addr

let write_note m p ~site addr page word =
  charge_local p m.cost.Sim.Cost.instr_ns;
  m.stats.Sim.Stats.shared_writes <- m.stats.Sim.Stats.shared_writes + 1;
  if detect_on m then
    if Coherence.Elide.mem m.elide site then
      m.stats.Sim.Stats.elided_checks <- m.stats.Sim.Stats.elided_checks + 1
    else instrument m p page word Proto.Race.Write;
  observe p ~site ~addr Proto.Race.Write;
  trace_write m p addr

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
  flush_time p;
  let stats = m.stats in
  stats.Sim.Stats.bus_transactions <- stats.Sim.Stats.bus_transactions + 1;
  stats.Sim.Stats.bus_words <- stats.Sim.Stats.bus_words + words;
  (match kind with
  | B_rd -> stats.Sim.Stats.bus_reads <- stats.Sim.Stats.bus_reads + 1
  | B_rdx -> stats.Sim.Stats.bus_read_x <- stats.Sim.Stats.bus_read_x + 1
  | B_upgr -> stats.Sim.Stats.bus_upgrades <- stats.Sim.Stats.bus_upgrades + 1
  | B_upd -> stats.Sim.Stats.bus_updates <- stats.Sim.Stats.bus_updates + 1
  | B_wb -> stats.Sim.Stats.bus_writebacks <- stats.Sim.Stats.bus_writebacks + 1
  | B_sync -> stats.Sim.Stats.bus_syncs <- stats.Sim.Stats.bus_syncs + 1);
  if tracing m then
    emit_sink m (Trace.Event.Bus { proc = p.id; kind = trace_kind kind; line });
  let supply_ns =
    match supply with
    | `Mem -> m.cost.Sim.Cost.bus_mem_ns
    | `Cache -> m.cost.Sim.Cost.bus_c2c_ns
    | `None -> 0.0
  in
  let dur_ns =
    m.cost.Sim.Cost.bus_arb_ns
    +. (m.cost.Sim.Cost.bus_word_ns *. float_of_int words)
    +. supply_ns
  in
  let dur = max 1 (int_of_float dur_ns) in
  let now = Sim.Engine.now m.engine in
  let start = max now m.bus_busy_until in
  m.bus_busy_until <- start + dur;
  Sim.Engine.advance (start + dur - now)

let others m p f =
  Array.iter (fun q -> if q.id <> p.id then f q) m.procs

let line_of m addr = addr lsr m.line_shift

(* Claim a cache slot for [line]; a displaced dirty line pays a
   writeback transaction (clean evictions are silent). *)
let fill_line m p ~line ~state =
  let slot, evicted = Cache.fill p.cache ~line ~is_valid in
  slot.state <- state;
  match evicted with
  | None -> ()
  | Some { Cache.victim_tag; victim_state } ->
      m.stats.Sim.Stats.cache_evictions <- m.stats.Sim.Stats.cache_evictions + 1;
      (match victim_state with
      | L_mod | L_shared_dirty ->
          bus m p ~kind:B_wb ~line:victim_tag ~words:m.line_words ~supply:`Mem
      | _ -> ())

(* --- MESI ---------------------------------------------------------- *)

let mesi_read_miss m p ~line =
  let shared = ref false in
  others m p (fun q ->
      match Cache.probe q.cache ~line ~is_valid with
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
      others m p (fun q ->
          match Cache.probe q.cache ~line ~is_valid with
          | Some s ->
              s.Cache.state <- L_inv;
              m.stats.Sim.Stats.invalidations <- m.stats.Sim.Stats.invalidations + 1
          | None -> ());
      slot.Cache.state <- L_mod;
      bus m p ~kind:B_upgr ~line ~words:0 ~supply:`None
  | L_inv | L_shared_clean | L_shared_dirty -> assert false

let mesi_write_miss m p ~line =
  let shared = ref false in
  others m p (fun q ->
      match Cache.probe q.cache ~line ~is_valid with
      | Some slot ->
          shared := true;
          slot.Cache.state <- L_inv;
          m.stats.Sim.Stats.invalidations <- m.stats.Sim.Stats.invalidations + 1
      | None -> ());
  fill_line m p ~line ~state:L_mod;
  bus m p ~kind:B_rdx ~line ~words:m.line_words
    ~supply:(if !shared then `Cache else `Mem)

(* --- Dragon -------------------------------------------------------- *)

let dragon_read_miss m p ~line =
  let shared = ref false in
  others m p (fun q ->
      match Cache.probe q.cache ~line ~is_valid with
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
  others m p (fun q ->
      match Cache.probe q.cache ~line ~is_valid with
      | Some s ->
          incr sharers;
          m.stats.Sim.Stats.updates_applied <- m.stats.Sim.Stats.updates_applied + 1;
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
  match Cache.find p.cache ~line ~is_valid with
  | Some slot -> dragon_write_hit m p slot ~line
  | None -> assert false

(* --- protocol-independent access path ------------------------------ *)

let cache_read m p addr =
  let line = line_of m addr in
  charge_local p m.cost.Sim.Cost.cache_hit_ns;
  match Cache.find p.cache ~line ~is_valid with
  | Some _ -> m.stats.Sim.Stats.cache_hits <- m.stats.Sim.Stats.cache_hits + 1
  | None ->
      m.stats.Sim.Stats.cache_misses <- m.stats.Sim.Stats.cache_misses + 1;
      (match m.protocol with
      | Mesi -> mesi_read_miss m p ~line
      | Dragon -> dragon_read_miss m p ~line)

let cache_write m p addr =
  let line = line_of m addr in
  charge_local p m.cost.Sim.Cost.cache_hit_ns;
  match Cache.find p.cache ~line ~is_valid with
  | Some slot ->
      m.stats.Sim.Stats.cache_hits <- m.stats.Sim.Stats.cache_hits + 1;
      (match m.protocol with
      | Mesi -> mesi_write_hit m p slot ~line
      | Dragon -> dragon_write_hit m p slot ~line)
  | None ->
      m.stats.Sim.Stats.cache_misses <- m.stats.Sim.Stats.cache_misses + 1;
      (match m.protocol with
      | Mesi -> mesi_write_miss m p ~line
      | Dragon -> dragon_write_miss m p ~line)

(* ------------------------------------------------------------------ *)
(* Shared-memory accesses                                               *)

let bad_shared addr =
  invalid_arg (Printf.sprintf "Machine: address 0x%x outside the shared segment" addr)

let bad_aligned addr =
  invalid_arg (Printf.sprintf "Machine: unaligned shared access 0x%x" addr)

let check_addr m addr =
  if not (Mem.Geometry.in_shared m.geometry addr) then bad_shared addr;
  if addr mod m.geometry.Mem.Geometry.word_size <> 0 then bad_aligned addr

let read_access m p ~site addr =
  check_addr m addr;
  let page = Mem.Geometry.page_of_addr m.geometry addr in
  let word = Mem.Geometry.word_in_page m.geometry addr in
  read_note m p ~site addr page word;
  cache_read m p addr;
  (page, word)

let write_access m p ~site addr =
  check_addr m addr;
  let page = Mem.Geometry.page_of_addr m.geometry addr in
  let word = Mem.Geometry.word_in_page m.geometry addr in
  write_note m p ~site addr page word;
  cache_write m p addr;
  (page, word)

let read_word m p ?(site = "?") addr =
  let page, word = read_access m p ~site addr in
  Mem.Page.get_int64 m.pages.(page) word

let read_word_int m p ?(site = "?") addr =
  let page, word = read_access m p ~site addr in
  Mem.Page.get_int m.pages.(page) word

let read_word_float m p ?(site = "?") addr =
  let page, word = read_access m p ~site addr in
  Mem.Page.get_float m.pages.(page) word

let write_word m p ?(site = "?") addr value =
  let page, word = write_access m p ~site addr in
  Mem.Page.set_int64 m.pages.(page) word value

let write_word_int m p ?(site = "?") addr value =
  let page, word = write_access m p ~site addr in
  Mem.Page.set_int m.pages.(page) word value

let write_word_float m p ?(site = "?") addr value =
  let page, word = write_access m p ~site addr in
  Mem.Page.set_float m.pages.(page) word value

let touch_private m p n =
  m.stats.Sim.Stats.private_accesses <- m.stats.Sim.Stats.private_accesses + n;
  let fn = float_of_int n in
  charge_local p (m.cost.Sim.Cost.instr_ns *. fn);
  if detect_on m then begin
    charge_category m p Sim.Stats.Proc_call (m.cost.Sim.Cost.proc_call_ns *. fn);
    charge_category m p Sim.Stats.Access_check (m.cost.Sim.Cost.access_check_ns *. fn)
  end

let compute m p ops = charge_local p (m.cost.Sim.Cost.instr_ns *. ops)

let idle _m p ns =
  flush_time p;
  Sim.Engine.advance (int_of_float ns)

(* ------------------------------------------------------------------ *)
(* Locks: a bus read-modify-write plus an FCFS grant queue              *)

let lock_state m lock =
  match Hashtbl.find_opt m.locks lock with
  | Some l -> l
  | None ->
      let l = { holder = None; waiting = Queue.create (); release_vc = None } in
      Hashtbl.add m.locks lock l;
      l

let grant m p l lock_id =
  (match m.recorder with
  | Some recorder -> Coherence.Sync_trace.record recorder ~lock:lock_id ~grantee:p.id
  | None -> ());
  ignore (close_interval m p);
  (match l.release_vc with
  | Some vc -> Proto.Vclock.merge_into ~dst:p.vc vc
  | None -> ());
  open_interval m p;
  emit_trace m p (Racedetect.Oracle.Acquire lock_id);
  if tracing m then
    emit_sink m
      (Trace.Event.Lock_acquire
         { proc = p.id; lock = lock_id; vc = Proto.Vclock.copy p.vc })

let lock m p lock_id =
  flush_time p;
  m.stats.Sim.Stats.lock_acquires <- m.stats.Sim.Stats.lock_acquires + 1;
  let l = lock_state m lock_id in
  if l.holder = Some p.id then invalid_arg "Machine.lock: lock already held (not reentrant)";
  bus m p ~kind:B_sync ~line:lock_id ~words:1 ~supply:`Mem;
  (match l.holder with
  | None -> l.holder <- Some p.id
  | Some _ ->
      Queue.add p.id l.waiting;
      Sim.Engine.block ~label:(Printf.sprintf "grant of lock %d (bus)" lock_id);
      (* the releaser installed us as holder before waking us *)
      assert (l.holder = Some p.id));
  grant m p l lock_id

let unlock m p lock_id =
  flush_time p;
  let l = lock_state m lock_id in
  if l.holder <> Some p.id then invalid_arg "Machine.unlock: lock not held";
  bus m p ~kind:B_sync ~line:lock_id ~words:1 ~supply:`Mem;
  ignore (close_interval m p);
  l.release_vc <- Some (Proto.Vclock.copy p.vc);
  open_interval m p;
  emit_trace m p (Racedetect.Oracle.Release lock_id);
  if tracing m then
    emit_sink m
      (Trace.Event.Lock_release
         { proc = p.id; lock = lock_id; vc = Proto.Vclock.copy p.vc });
  match Queue.take_opt l.waiting with
  | Some next ->
      l.holder <- Some next;
      Sim.Engine.wake m.engine m.procs.(next).pid
  | None -> l.holder <- None

(* ------------------------------------------------------------------ *)
(* Barrier: last arriver runs detection centrally, then releases all    *)

let empty_bitmap_pair m =
  {
    Racedetect.Detector.reads = Mem.Bitmap.create (words_per_page m);
    writes = Mem.Bitmap.create (words_per_page m);
  }

let run_detection m =
  let stats = m.stats in
  let epoch_intervals =
    List.filter
      (fun iv -> iv.Proto.Interval.epoch = m.epoch)
      (List.rev m.barrier_intervals)
  in
  let before = stats.Sim.Stats.interval_comparisons in
  let probe =
    if tracing m then
      Some
        (fun (e : Racedetect.Checklist.entry) ->
          emit_sink m (Trace.Event.Check_entry { a = e.a; b = e.b; pages = e.pages }))
    else None
  in
  let n_concurrent, entries =
    Racedetect.Detector.concurrent_check_list ~stats ?probe epoch_intervals
  in
  let comparisons = stats.Sim.Stats.interval_comparisons - before in
  let intervals_ns =
    (m.cost.Sim.Cost.vv_compare_ns *. float_of_int comparisons)
    +. (200.0 *. float_of_int n_concurrent)
  in
  Sim.Stats.charge stats Sim.Stats.Intervals intervals_ns;
  let before_b = stats.Sim.Stats.bitmap_comparisons in
  let source id ~page =
    match Hashtbl.find_opt m.bitmap_store (id, page) with
    | Some pair -> pair
    | None -> empty_bitmap_pair m
  in
  let races =
    List.concat_map
      (Racedetect.Detector.races_of_entry ~stats ~geometry:m.geometry ~epoch:m.epoch
         ~source)
      entries
    |> Proto.Race.dedup
  in
  let compared = stats.Sim.Stats.bitmap_comparisons - before_b in
  let bitmaps_ns =
    m.cost.Sim.Cost.bitmap_word_ns *. float_of_int (3 * compared * words_per_page m)
  in
  Sim.Stats.charge stats Sim.Stats.Bitmaps bitmaps_ns;
  (* the last arriver performs the detection serially before anyone is
     released, like the DSM barrier master *)
  Sim.Engine.advance (int_of_float (intervals_ns +. bitmaps_ns));
  races

let release_barrier m ~last ~entered =
  let races = if detect_on m then run_detection m else [] in
  let races =
    if m.cfg.Coherence.Config.first_race_only && m.race_seen then []
    else begin
      if races <> [] then m.race_seen <- true;
      races
    end
  in
  m.races := races @ !(m.races);
  if tracing m then List.iter (fun r -> emit_sink m (Trace.Event.Race r)) races;
  m.stats.Sim.Stats.races_reported <-
    m.stats.Sim.Stats.races_reported + List.length races;
  m.stats.Sim.Stats.barriers <- m.stats.Sim.Stats.barriers + 1;
  let merged = Proto.Vclock.create m.nprocs in
  Array.iter (fun q -> Proto.Vclock.merge_into ~dst:merged q.vc) m.procs;
  m.epoch <- m.epoch + 1;
  Array.iter
    (fun q ->
      Proto.Vclock.merge_into ~dst:q.vc merged;
      open_interval m q;
      if tracing m then
        emit_sink m
          (Trace.Event.Barrier_leave
             { proc = q.id; epoch = entered; vc = Proto.Vclock.copy q.vc }))
    m.procs;
  Hashtbl.reset m.bitmap_store;
  let arrivals = m.barrier_arrivals in
  m.barrier_arrivals <- [];
  m.barrier_intervals <- [];
  List.iter
    (fun qid -> if qid <> last then Sim.Engine.wake m.engine m.procs.(qid).pid)
    arrivals

let barrier m p =
  flush_time p;
  let entered = m.epoch in
  emit_sink m (Trace.Event.Barrier_enter { proc = p.id; epoch = entered });
  (* arrival is a fetch-and-increment on the barrier word *)
  bus m p ~kind:B_sync ~line:0 ~words:1 ~supply:`Mem;
  ignore (close_interval m p);
  emit_trace m p Racedetect.Oracle.Barrier;
  m.barrier_arrivals <- p.id :: m.barrier_arrivals;
  m.barrier_intervals <- List.rev_append p.my_closed m.barrier_intervals;
  p.my_closed <- [];
  if List.length m.barrier_arrivals < m.nprocs then
    Sim.Engine.block ~label:"barrier release (bus)"
  else release_barrier m ~last:p.id ~entered

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)

let malloc m p ?name ?(align = 0) bytes =
  (* Same bump-allocator discipline as the DSM nodes: SPMD programs call
     at the same program points on every processor and compute identical
     addresses; names register once, via processor 0. *)
  if bytes < 0 then invalid_arg "Machine.malloc";
  let word = m.geometry.Mem.Geometry.word_size in
  let round v quantum = (v + quantum - 1) / quantum * quantum in
  let start = if align > 0 then round p.alloc_next align else round p.alloc_next word in
  let next = start + round bytes word in
  if next > Mem.Geometry.limit m.geometry then
    invalid_arg "Machine.malloc: shared segment exhausted";
  p.alloc_next <- next;
  (match name with
  | Some name when p.id = 0 -> Mem.Symtab.register m.symtab ~name ~base:start ~bytes
  | _ -> ());
  start

let alloc m ?name ?(align = 0) bytes =
  let start = malloc m m.procs.(0) ?name ~align bytes in
  let next = m.procs.(0).alloc_next in
  Array.iter (fun p -> p.alloc_next <- next) m.procs;
  start

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
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let geometry = Mem.Geometry.of_cost cost ~pages in
  let symtab = Mem.Symtab.create () in
  let recorder =
    if cfg.Coherence.Config.record_sync then Some (Coherence.Sync_trace.new_recorder ())
    else None
  in
  let elide = Coherence.Elide.create cfg.Coherence.Config.elide_sites in
  let probe =
    (* sim-level events for the record/replay sink; a bus machine has no
       network, so only the scheduling events can occur *)
    match cfg.Coherence.Config.tracer with
    | None -> None
    | Some sink ->
        Some
          (fun (ev : Sim.Probe.event) ->
            let event =
              match ev with
              | Sim.Probe.Proc_block { pid; label } ->
                  Some (Trace.Event.Proc_block { proc = pid; label })
              | Sim.Probe.Proc_resume { pid } ->
                  Some (Trace.Event.Proc_resume { proc = pid })
              | Sim.Probe.Proc_finish { pid } ->
                  Some (Trace.Event.Proc_finish { proc = pid })
              | _ -> None
            in
            match event with
            | Some event -> Trace.Sink.emit sink ~time:(Sim.Engine.now engine) event
            | None -> ())
  in
  Sim.Engine.set_probe engine probe;
  Sim.Engine.set_stall_budget engine cfg.Coherence.Config.watchdog_ns;
  let mem_pages =
    Array.init geometry.Mem.Geometry.pages (fun _ ->
        Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size
          ~word_size:geometry.Mem.Geometry.word_size)
  in
  let procs =
    Array.init nprocs (fun id ->
        let vc = Proto.Vclock.create nprocs in
        {
          id;
          cache =
            Cache.create ~sets:cfg.Coherence.Config.cc_sets
              ~ways:cfg.Coherence.Config.cc_ways ~invalid:L_inv;
          debt = [| 0.0 |];
          vc;
          cur =
            Proto.Interval.create ~proc:id ~index:0 ~vc:(Proto.Vclock.copy vc) ~epoch:0;
          my_closed = [];
          read_bits = Hashtbl.create 16;
          write_bits = Hashtbl.create 16;
          pid = id;
          access_observer = None;
          alloc_next = geometry.Mem.Geometry.base;
        })
  in
  let m =
    {
      engine;
      cost;
      stats;
      cfg;
      geometry;
      symtab;
      protocol;
      nprocs;
      line_shift = shift_of line_bytes;
      line_words = line_bytes / word_size;
      pages = mem_pages;
      procs;
      bus_busy_until = 0;
      locks = Hashtbl.create 16;
      bitmap_store = Hashtbl.create 64;
      races = ref [];
      trace = ref [];
      timed = ref [];
      recorder;
      elide;
      epoch = 0;
      barrier_arrivals = [];
      barrier_intervals = [];
      race_seen = false;
    }
  in
  Array.iter (fun p -> open_interval m p) m.procs;
  Sim.Engine.add_diagnostic engine (fun () ->
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

let view m p =
  {
    Coherence.Node.id = p.id;
    nprocs = m.nprocs;
    geometry = m.geometry;
    malloc = (fun ?name ?align bytes -> malloc m p ?name ?align bytes);
    read_word = (fun ?site addr -> read_word m p ?site addr);
    write_word = (fun ?site addr value -> write_word m p ?site addr value);
    read_word_int = (fun ?site addr -> read_word_int m p ?site addr);
    write_word_int = (fun ?site addr value -> write_word_int m p ?site addr value);
    read_word_float = (fun ?site addr -> read_word_float m p ?site addr);
    write_word_float = (fun ?site addr value -> write_word_float m p ?site addr value);
    lock = (fun l -> lock m p l);
    unlock = (fun l -> unlock m p l);
    barrier = (fun () -> barrier m p);
    compute = (fun ops -> compute m p ops);
    idle = (fun ns -> idle m p ns);
    touch_private = (fun n -> touch_private m p n);
  }

let run m body =
  Array.iter
    (fun p -> p.pid <- Sim.Engine.spawn m.engine (fun _pid -> body (view m p)))
    m.procs;
  Sim.Engine.run m.engine

let memory_checksum m =
  (* FNV-1a over the final memory image. Unlike the DSM cluster every
     page is present (the bus machine's memory is the coherent copy), so
     the per-page presence tag is always 0x01. *)
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  Array.iter
    (fun page ->
      mix 0x01;
      let raw = Mem.Page.raw page in
      for i = 0 to Bytes.length raw - 1 do
        mix (Char.code (Bytes.unsafe_get raw i))
      done)
    m.pages;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let backend ?cost ?cfg ~protocol ~nprocs ~pages () =
  let m = create ?cost ?cfg ~protocol ~nprocs ~pages () in
  {
    Coherence.Backend.name = protocol_name protocol;
    nprocs = m.nprocs;
    geometry = m.geometry;
    config = m.cfg;
    stats = m.stats;
    symtab = m.symtab;
    alloc = (fun ?name ?align bytes -> alloc m ?name ?align bytes);
    run = (fun body -> run m body);
    races = (fun () -> Proto.Race.dedup !(m.races));
    trace = (fun () -> List.rev !(m.trace));
    timed_trace = (fun () -> List.rev !(m.timed));
    sync_trace =
      (fun () ->
        match m.recorder with
        | Some r -> Some (Coherence.Sync_trace.of_recorder r)
        | None -> None);
    sim_time = (fun () -> Sim.Engine.now m.engine);
    memory_checksum = (fun () -> memory_checksum m);
    set_access_observer =
      (fun id observer -> m.procs.(id).access_observer <- Some observer);
  }
