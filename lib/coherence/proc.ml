(* The backend-independent half of a simulated processor: everything the
   paper's detector adds on top of a consistency protocol (section 4),
   none of which depends on how pages or cache lines move.

   - time debt: local computation accrues as a fractional-ns debt that
     is advanced at the next blocking point;
   - access notes: the per-access cost charge, statistics, the inserted
     analysis-routine call that sets the interval's bitmap bit (or the
     elision that skips it), the watch-mode observer and the oracle
     trace;
   - intervals: opening one, and freezing its bitmaps into a store;
   - the barrier's race-reporting epilogue, the bump allocator and the
     run-end memory digest.

   The LRC DSM node ([Lrc.Node]) and the bus machine ([Cc.Machine])
   both call this module, so both charge the same {!Sim.Stats}
   categories in the same order for the same program. Float sums are
   order-sensitive, which is why the charge sequence of each function is
   part of its contract.

   One [env] is shared by every processor of a run; each processor owns
   one [t]. *)

type observer = site:string -> addr:int -> Proto.Race.access_kind -> unit

type env = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  symtab : Mem.Symtab.t;
  probe : Sim.Probe.t option;
  recorder : Sync_trace.recorder option;
  elide : Elide.t;
  check_stores : bool;
  mutable races : Proto.Race.t list;  (* every epoch's reports, newest first *)
  mutable trace : (int * Racedetect.Oracle.event) list;  (* reversed *)
  mutable timed : (int * int * Racedetect.Oracle.event) list;  (* (ns, proc, ev) *)
  mutable race_seen : bool;  (* for [first_race_only] *)
  (* shift/mask address split, valid when [g_fast] (page and word sizes
     both powers of two, base page-aligned) *)
  g_fast : bool;
  g_base : int;
  g_limit : int;
  g_page_shift : int;
  g_page_mask : int;
  g_word_shift : int;
  g_word_mask : int;
}

type t = {
  env : env;
  id : int;
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;
  mutable epoch : int;
  mutable my_closed : Proto.Interval.t list;  (* own closed intervals, this epoch *)
  debt : float array;
      (* accumulated local compute time not yet advanced; a 1-element float
         array so the several updates per access stay unboxed *)
  (* the current interval's word-level access bitmaps. The tables are
     authoritative (their iteration order fixes the order of the read
     notices [snapshot_bitmaps] derives); the arrays are O(1) per-access
     handles onto the same bitmaps. *)
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  read_cache : Mem.Bitmap.t option array;
  write_cache : Mem.Bitmap.t option array;
  mutable alloc_next : int;  (* bump allocator over the shared segment *)
  mutable access_observer : observer option;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let shift_of n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create_env ~cost ~(cfg : Config.t) ~check_stores ~pages =
  let engine = Sim.Engine.create () in
  let geometry = Mem.Geometry.of_cost cost ~pages in
  let page_size = geometry.Mem.Geometry.page_size in
  let word_size = geometry.Mem.Geometry.word_size in
  let g_fast =
    is_pow2 page_size && is_pow2 word_size
    && geometry.Mem.Geometry.base land (page_size - 1) = 0
  in
  let probe =
    Option.map
      (fun sink ev ->
        Trace.Sink.emit sink ~time:(Sim.Engine.now engine) (Trace.Event.of_probe ev))
      cfg.Config.tracer
  in
  Sim.Engine.set_probe engine probe;
  Sim.Engine.set_stall_budget engine cfg.Config.watchdog_ns;
  {
    engine;
    cost;
    stats = Sim.Stats.create ();
    cfg;
    geometry;
    symtab = Mem.Symtab.create ();
    probe;
    recorder = (if cfg.Config.record_sync then Some (Sync_trace.new_recorder ()) else None);
    elide = Elide.create cfg.Config.elide_sites;
    check_stores = cfg.Config.detect && check_stores;
    races = [];
    trace = [];
    timed = [];
    race_seen = false;
    g_fast;
    g_base = geometry.Mem.Geometry.base;
    g_limit = Mem.Geometry.limit geometry;
    g_page_shift = (if g_fast then shift_of page_size else 0);
    g_page_mask = page_size - 1;
    g_word_shift = (if g_fast then shift_of word_size else 0);
    g_word_mask = word_size - 1;
  }

(* ------------------------------------------------------------------ *)
(* Time accounting                                                     *)

let[@inline] charge_local p ns = Array.unsafe_set p.debt 0 (Array.unsafe_get p.debt 0 +. ns)

let[@inline] charge_category p category ns =
  Sim.Stats.charge p.env.stats category ns;
  charge_local p ns

let flush_time p =
  let debt = Array.unsafe_get p.debt 0 in
  if debt >= 1.0 then begin
    let ns = int_of_float debt in
    Array.unsafe_set p.debt 0 (debt -. float_of_int ns);
    Sim.Engine.advance ns
  end

(* ------------------------------------------------------------------ *)
(* Oracle trace and record/replay sink                                 *)

let emit_trace p event =
  let env = p.env in
  if env.cfg.Config.record_trace then begin
    env.trace <- (p.id, event) :: env.trace;
    env.timed <- (Sim.Engine.now env.engine, p.id, event) :: env.timed
  end

(* Protocol-level events carry context (vector clocks, interval ids, page
   lists) the sim layer's probe cannot see, so the backends emit them
   here. One branch when no tracer is configured. *)
let emit_sink p event =
  match p.env.cfg.Config.tracer with
  | Some sink -> Trace.Sink.emit sink ~time:(Sim.Engine.now p.env.engine) event
  | None -> ()

let tracing p = p.env.cfg.Config.tracer <> None

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)

let open_interval p =
  Proto.Vclock.incr p.vc p.id;
  let index = Proto.Vclock.get p.vc p.id in
  p.cur <- Proto.Interval.create ~proc:p.id ~index ~vc:(Proto.Vclock.copy p.vc) ~epoch:p.epoch;
  if tracing p then
    emit_sink p (Trace.Event.Interval_open { proc = p.id; index; epoch = p.epoch });
  p.env.stats.Sim.Stats.intervals_created <- p.env.stats.Sim.Stats.intervals_created + 1;
  charge_local p p.env.cost.Sim.Cost.interval_setup_ns

let snapshot_bitmaps ?on_written p (store : Racedetect.Detector.bitmap_store) interval =
  (* Freeze the closing interval's access bitmaps into [store]; read
     notices are derived here (modification (ii) of the paper). *)
  let env = p.env in
  let id = Proto.Interval.id interval in
  let pages = Hashtbl.create 8 in
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.read_bits;
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.write_bits;
  Hashtbl.iter
    (fun page () ->
      let reads =
        match Hashtbl.find_opt p.read_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (Mem.Geometry.words_per_page env.geometry)
      in
      let writes =
        match Hashtbl.find_opt p.write_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (Mem.Geometry.words_per_page env.geometry)
      in
      if Mem.Bitmap.any_set reads then Proto.Interval.add_read_page interval page;
      (match on_written with
      | Some f when Mem.Bitmap.any_set writes -> f page
      | _ -> ());
      Hashtbl.replace store (id, page) { Racedetect.Detector.reads; writes };
      env.stats.Sim.Stats.bitmaps_total <- env.stats.Sim.Stats.bitmaps_total + 1;
      charge_category p Sim.Stats.Cvm_mods env.cost.Sim.Cost.notice_setup_ns)
    pages;
  Hashtbl.iter
    (fun page () ->
      Array.unsafe_set p.read_cache page None;
      Array.unsafe_set p.write_cache page None)
    pages;
  Hashtbl.reset p.read_bits;
  Hashtbl.reset p.write_bits

let interval_closed p interval =
  p.my_closed <- interval :: p.my_closed;
  if tracing p then
    emit_sink p
      (Trace.Event.Interval_close
         {
           proc = p.id;
           index = (Proto.Interval.id interval).Proto.Interval.index;
           epoch = interval.Proto.Interval.epoch;
           write_pages = interval.Proto.Interval.write_pages;
           read_pages = interval.Proto.Interval.read_pages;
         })

(* ------------------------------------------------------------------ *)
(* Shared accesses                                                     *)

let bad_shared addr =
  invalid_arg (Printf.sprintf "shared access: address 0x%x outside the shared segment" addr)

let bad_aligned addr = invalid_arg (Printf.sprintf "shared access: unaligned address 0x%x" addr)

let[@inline] check_addr p addr =
  let env = p.env in
  if env.g_fast then begin
    if addr < env.g_base || addr >= env.g_limit then bad_shared addr;
    if addr land env.g_word_mask <> 0 then bad_aligned addr
  end
  else begin
    if not (Mem.Geometry.in_shared env.geometry addr) then bad_shared addr;
    if addr mod env.geometry.Mem.Geometry.word_size <> 0 then bad_aligned addr
  end

(* Page/word of a checked address: shifts and masks on the fast path, the
   division-based {!Mem.Geometry} functions otherwise. *)
let[@inline] page_of p addr =
  let env = p.env in
  if env.g_fast then (addr - env.g_base) lsr env.g_page_shift
  else Mem.Geometry.page_of_addr env.geometry addr

let[@inline] word_of p addr =
  let env = p.env in
  if env.g_fast then (addr land env.g_page_mask) lsr env.g_word_shift
  else Mem.Geometry.word_in_page env.geometry addr

let[@inline] instrument p page word kind =
  (* The inserted analysis-routine call: a procedure call plus the check
     that decides shared vs private and sets the per-page bitmap bit. *)
  let env = p.env in
  charge_category p Sim.Stats.Proc_call env.cost.Sim.Cost.proc_call_ns;
  charge_category p Sim.Stats.Access_check env.cost.Sim.Cost.access_check_ns;
  let cache =
    match kind with Proto.Race.Read -> p.read_cache | Proto.Race.Write -> p.write_cache
  in
  let bitmap =
    match Array.unsafe_get cache page with
    | Some bm -> bm
    | None ->
        let bm = Mem.Bitmap.create (Mem.Geometry.words_per_page env.geometry) in
        let table =
          match kind with Proto.Race.Read -> p.read_bits | Proto.Race.Write -> p.write_bits
        in
        Hashtbl.replace table page bm;
        Array.unsafe_set cache page (Some bm);
        bm
  in
  Mem.Bitmap.set bitmap word

(* Run the check of one access unless its site is elided. An elided site
   skips the inserted analysis-routine call entirely (no procedure-call or
   check charge, no bitmap bit) but keeps the base instruction charge,
   the statistics, the watch-mode observation and the oracle trace — so
   elision changes cost and bitmaps only, never what the oracle or a
   watch run can see. *)
let[@inline] check p ~site page word kind =
  if Elide.mem p.env.elide site then begin
    p.env.stats.Sim.Stats.elided_checks <- p.env.stats.Sim.Stats.elided_checks + 1;
    false
  end
  else begin
    instrument p page word kind;
    true
  end

let[@inline] observe p ~site ~addr kind =
  match p.access_observer with Some f -> f ~site ~addr kind | None -> ()

(* The oracle event is built only when a trace is being recorded: the
   constructor would otherwise allocate on every shared access. *)
let[@inline] read_note p ~site addr page word =
  let env = p.env in
  charge_local p env.cost.Sim.Cost.instr_ns;
  env.stats.Sim.Stats.shared_reads <- env.stats.Sim.Stats.shared_reads + 1;
  let checked = env.cfg.Config.detect && check p ~site page word Proto.Race.Read in
  observe p ~site ~addr Proto.Race.Read;
  if env.cfg.Config.record_trace then emit_trace p (Racedetect.Oracle.Read addr);
  checked

let[@inline] write_note p ~site addr page word =
  let env = p.env in
  charge_local p env.cost.Sim.Cost.instr_ns;
  env.stats.Sim.Stats.shared_writes <- env.stats.Sim.Stats.shared_writes + 1;
  let checked = env.check_stores && check p ~site page word Proto.Race.Write in
  observe p ~site ~addr Proto.Race.Write;
  if env.cfg.Config.record_trace then emit_trace p (Racedetect.Oracle.Write addr);
  checked

let touch_private p n =
  (* n private accesses that survived static analysis: they pay the full
     analysis-routine cost at runtime but never set a bitmap bit. *)
  let env = p.env in
  env.stats.Sim.Stats.private_accesses <- env.stats.Sim.Stats.private_accesses + n;
  let fn = float_of_int n in
  charge_local p (env.cost.Sim.Cost.instr_ns *. fn);
  if env.cfg.Config.detect then begin
    charge_category p Sim.Stats.Proc_call (env.cost.Sim.Cost.proc_call_ns *. fn);
    charge_category p Sim.Stats.Access_check (env.cost.Sim.Cost.access_check_ns *. fn)
  end

let compute p ops = charge_local p (p.env.cost.Sim.Cost.instr_ns *. ops)

let idle p ns =
  (* unlike [compute], this advances simulated time immediately — used to
     stage interleavings (litmus tests, scenario builders) *)
  flush_time p;
  Sim.Engine.advance (int_of_float ns)

(* ------------------------------------------------------------------ *)
(* Barrier detection                                                   *)

let check_entry_probe p =
  if tracing p then
    Some
      (fun (e : Racedetect.Checklist.entry) ->
        emit_sink p (Trace.Event.Check_entry { a = e.a; b = e.b; pages = e.pages }))
  else None

let report_races p races =
  let env = p.env in
  let races =
    if env.cfg.Config.first_race_only && env.race_seen then []
    else begin
      if races <> [] then env.race_seen <- true;
      races
    end
  in
  env.races <- races @ env.races;
  if tracing p then List.iter (fun r -> emit_sink p (Trace.Event.Race r)) races;
  env.stats.Sim.Stats.races_reported <- env.stats.Sim.Stats.races_reported + List.length races;
  env.stats.Sim.Stats.barriers <- env.stats.Sim.Stats.barriers + 1

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let bump p ~who ~register ?name ?(align = 0) bytes =
  if bytes < 0 then invalid_arg who;
  let geometry = p.env.geometry in
  let word = geometry.Mem.Geometry.word_size in
  let round v quantum = (v + quantum - 1) / quantum * quantum in
  let start = if align > 0 then round p.alloc_next align else round p.alloc_next word in
  let next = start + round bytes word in
  if next > Mem.Geometry.limit geometry then
    invalid_arg (who ^ ": shared segment exhausted");
  p.alloc_next <- next;
  (match name with
  | Some name when register -> Mem.Symtab.register p.env.symtab ~name ~base:start ~bytes
  | _ -> ());
  start

let malloc p ?name ?align bytes = bump p ~who:"malloc" ~register:(p.id = 0) ?name ?align bytes

let alloc procs ~who ?name ?align bytes =
  let start = bump procs.(0) ~who ~register:true ?name ?align bytes in
  let next = procs.(0).alloc_next in
  Array.iter (fun p -> p.alloc_next <- next) procs;
  start

(* ------------------------------------------------------------------ *)
(* Construction and run end                                            *)

let create env ~id ~nprocs =
  let pages = env.geometry.Mem.Geometry.pages in
  let vc = Proto.Vclock.create nprocs in
  let p =
    {
      env;
      id;
      vc;
      cur = Proto.Interval.create ~proc:id ~index:0 ~vc:(Proto.Vclock.copy vc) ~epoch:0;
      epoch = 0;
      my_closed = [];
      debt = Array.make 1 0.0;
      read_bits = Hashtbl.create 16;
      write_bits = Hashtbl.create 16;
      read_cache = Array.make pages None;
      write_cache = Array.make pages None;
      alloc_next = env.geometry.Mem.Geometry.base;
      access_observer = None;
    }
  in
  (* open the first real interval (index 1) *)
  open_interval p;
  p

let memory_digest env copy =
  (* FNV-1a over the final shared-memory image, page by page: a presence
     tag, then the bytes of the page's coherent copy if there is one. *)
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  for page = 0 to env.geometry.Mem.Geometry.pages - 1 do
    match copy page with
    | None -> mix 0xFF
    | Some raw ->
        mix 0x01;
        for i = 0 to Bytes.length raw - 1 do
          mix (Char.code (Bytes.unsafe_get raw i))
        done
  done;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)
