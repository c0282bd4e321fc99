(* Per-processor DSM state and protocol engine — the CVM analogue.

   Each simulated processor owns one [t]. Its application coroutine calls
   the access/synchronization operations in {!Dsm}; protocol messages from
   other processors are serviced by [handle_message], which the network
   invokes at delivery time (CVM's SIGIO handler). Handlers never block;
   replies the application waits for are parked in [replies] and the
   application coroutine is woken.

   Processor 0 additionally plays three central roles, as in the paper's
   prototype: lock manager, page manager (single-writer ownership
   directory), and barrier master (where the race-detection algorithm
   runs).

   Delivery-semantics audit: these handlers are NOT idempotent. A
   re-delivered Lock_req would enqueue a second grant, a duplicated
   Diff_data would re-apply a diff against a base it already mutated, and
   a repeated Barrier_arrive would corrupt the arrival count. They also
   assume per-link FIFO (e.g. Own_data must not overtake the Inv that
   precedes it). The network therefore owes this layer exactly-once FIFO
   delivery: the default wire provides it directly, and in lossy mode
   {!Sim.Transport} (sequence numbers, cumulative acks, retransmission,
   duplicate suppression) restores it before messages reach
   [handle_message]. *)

type pstate = P_invalid | P_read | P_write

type page_entry = {
  data : Mem.Page.t;  (* local copy; contents are retained across invalidation
                         because they are the base diffs apply to *)
  mutable state : pstate;
  mutable owner : bool;  (* single-writer: are we the one writable copy? *)
  mutable twin : Mem.Page.t option;  (* multi-writer / home-based *)
  mutable pending : Proto.Interval.id list;  (* write notices not yet applied *)
  needed : Proto.Vclock.t;  (* home-based: knowledge a fetched copy must cover *)
}

(* Home-based LRC: the authoritative copy a home keeps for each page it
   owns, with the version vector its flushes have reached and the fetches
   waiting for a version that has not arrived yet. *)
type home_page = {
  home_data : Mem.Page.t;
  mutable home_version : Proto.Vclock.t;
  mutable home_waiting : (int * Proto.Vclock.t) list;
}

type lock_local = {
  mutable held : bool;
  mutable expecting : bool;  (* we sent Lock_req and await the grant *)
  mutable pending_seq : int option;  (* manager sequence of our request *)
  mutable next_request : (int * Proto.Vclock.t) option;  (* forwarded requester *)
  mutable release_vc : Proto.Vclock.t option;  (* knowledge at our last release *)
}

type page_mgr = {
  mutable page_owner : int;
  mutable busy : bool;
  waiting : Message.t Queue.t;
}

type lock_mgr = { mutable token : int; mutable next_seq : int; parked : Message.t Queue.t }

type barrier_master = {
  mutable arrivals : (int * Proto.Vclock.t * Proto.Interval.t list) list;
  mutable pending_checks : Racedetect.Checklist.entry list;
  mutable expected_replies : int;
  collected : (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
  mutable race_seen : bool;  (* for first_race_only suppression *)
  mutable master_vc : Proto.Vclock.t;  (* merged arrival clocks *)
  mutable check_bytes : int;  (* wire size of the check list *)
  mutable processing_epoch : int;  (* epoch under analysis *)
}

type runtime = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  mutable net : Message.t Sim.Net.t option;  (* filled in by Cluster *)
  races : Proto.Race.t list ref;
  trace : (int * Racedetect.Oracle.event) list ref;  (* reversed *)
  timed : (int * int * Racedetect.Oracle.event) list ref;  (* (ns, proc, ev) *)
  recorder : Coherence.Sync_trace.recorder option;
  symtab : Mem.Symtab.t;  (* names for shared allocations (section 6.1) *)
}

type t = {
  rt : runtime;
  id : int;
  nprocs : int;
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;
  mutable epoch : int;
  log : (Proto.Interval.id, Proto.Interval.t) Hashtbl.t;
  applied : (Proto.Interval.id, unit) Hashtbl.t;  (* notices already applied *)
  max_seen : int array;  (* per-proc highest interval index present in [log] *)
  mutable my_closed : Proto.Interval.t list;  (* own closed, this epoch *)
  pages : page_entry array;
  mutable rw_pages : int list;  (* pages currently P_write (for downgrade) *)
  locks : (int, lock_local) Hashtbl.t;
  (* instrumentation: current interval's word-level access bitmaps. The
     hashtables are authoritative (their iteration order fixes the order
     of read-notice emission in [snapshot_bitmaps]); the arrays are O(1)
     per-access handles onto the same bitmaps. *)
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  read_cache : Mem.Bitmap.t option array;
  write_cache : Mem.Bitmap.t option array;
  bitmap_store : (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
  (* diffs tagged with the creating interval's epoch, for interval GC *)
  diff_store : (Proto.Interval.id * int, Mem.Diff.t * int) Hashtbl.t;
  mutable gc_drop_bound : int;
      (* two-phase diff GC: epoch bound recorded at the last validate
         barrier, executed (diffs with creation epoch < bound dropped) at
         the next one; -1 when no drop is scheduled *)
  (* precomputed shift/mask address geometry, valid when [g_fast] (page
     and word sizes both powers of two, base page-aligned) *)
  g_fast : bool;
  g_base : int;
  g_limit : int;
  g_page_shift : int;
  g_page_mask : int;
  g_word_shift : int;
  g_word_mask : int;
  (* section 6.1 single-run site retention: (page, word, kind) -> site for
     the current interval, snapshotted per closed interval and KEPT for
     the whole run — the storage cost the paper calls prohibitive *)
  cur_sites : (int * int * Proto.Race.access_kind, string) Hashtbl.t;
  site_store : (Proto.Interval.id * int * int * Proto.Race.access_kind, string) Hashtbl.t;
  (* statically race-free sites whose runtime check is elided (the MHP
     analysis' complement set); empty when elision is off *)
  elide : Coherence.Elide.t;
  mutable replies : Message.t list;  (* replies awaited by the app coroutine *)
  debt : float array;
      (* accumulated local compute time not yet advanced; a 1-element float
         array so the several updates per access stay unboxed *)
  mutable alloc_next : int;  (* bump allocator over the shared segment *)
  mutable access_observer :
    (site:string -> addr:int -> Proto.Race.access_kind -> unit) option;
      (* hook for the two-run reference-identification scheme (section 6.1) *)
  (* central services, only populated at processor 0 *)
  page_mgrs : page_mgr array;
  lock_mgrs : (int, lock_mgr) Hashtbl.t;
  barrier : barrier_master;
  home_pages : (int, home_page) Hashtbl.t;  (* pages homed at this node *)
}

let is_manager t = t.id = 0

let net t =
  match t.rt.net with Some n -> n | None -> invalid_arg "Node: network not wired"

let words_per_page t = Mem.Geometry.words_per_page t.rt.geometry

(* ------------------------------------------------------------------ *)
(* Time accounting                                                     *)

let charge_local t ns = Array.unsafe_set t.debt 0 (Array.unsafe_get t.debt 0 +. ns)

let charge_category t category ns =
  Sim.Stats.charge t.rt.stats category ns;
  charge_local t ns

let flush_time t =
  let debt = Array.unsafe_get t.debt 0 in
  if debt >= 1.0 then begin
    let ns = int_of_float debt in
    Array.unsafe_set t.debt 0 (debt -. float_of_int ns);
    Sim.Engine.advance ns
  end

(* ------------------------------------------------------------------ *)
(* Trace recording (oracle cross-validation)                           *)

let emit_trace t event =
  if t.rt.cfg.Config.record_trace then begin
    t.rt.trace := (t.id, event) :: !(t.rt.trace);
    t.rt.timed := (Sim.Engine.now t.rt.engine, t.id, event) :: !(t.rt.timed)
  end

(* Access-path variants that only construct the event when a trace is
   actually being recorded (the constructor argument to [emit_trace] would
   otherwise allocate on every shared access). *)
let trace_read t addr =
  if t.rt.cfg.Config.record_trace then emit_trace t (Racedetect.Oracle.Read addr)

let trace_write t addr =
  if t.rt.cfg.Config.record_trace then emit_trace t (Racedetect.Oracle.Write addr)

(* Record/replay sink: protocol-level events carry context (vector clocks,
   interval ids, page lists) the sim layer's probe cannot see, so they are
   emitted here. One branch when no tracer is configured. *)
let emit_sink t event =
  match t.rt.cfg.Config.tracer with
  | Some sink -> Trace.Sink.emit sink ~time:(Sim.Engine.now t.rt.engine) event
  | None -> ()

let tracing t = t.rt.cfg.Config.tracer <> None

(* Temporary debugging aid: set CVM_DEBUG_ADDR to a shared address to trace
   every event that touches its word. *)
let debug_addr =
  match Sys.getenv_opt "CVM_DEBUG_ADDR" with
  | Some s -> Some (int_of_string s)
  | None -> None

let debug_page t =
  match debug_addr with
  | Some a when Mem.Geometry.in_shared t.rt.geometry a ->
      Some (Mem.Geometry.page_of_addr t.rt.geometry a, Mem.Geometry.word_in_page t.rt.geometry a)
  | _ -> None

let debug_enabled = debug_addr <> None

let debug_event t ~page fmt =
  match debug_page t with
  | Some (dp, dw) when dp = page ->
      let entry = t.pages.(page) in
      Printf.eprintf "[%10d p%d] " (Sim.Engine.now t.rt.engine) t.id;
      Printf.kfprintf
        (fun oc ->
          Printf.fprintf oc " | word=%Ld state=%s owner=%b\n%!"
            (Mem.Page.get_int64 entry.data dw)
            (match entry.state with P_invalid -> "I" | P_read -> "R" | P_write -> "W")
            entry.owner)
        stderr fmt
  | _ -> Printf.ikfprintf (fun _ -> ()) stderr fmt


(* ------------------------------------------------------------------ *)
(* Interval lifecycle                                                  *)

let detect_on t = t.rt.cfg.Config.detect

let stores_from_diffs t =
  t.rt.cfg.Config.stores_from_diffs && t.rt.cfg.Config.protocol = Config.Multi_writer

let send t ~dst msg =
  let with_read_notices = detect_on t in
  (match msg with
  | Message.Lock_grant { intervals; _ }
  | Message.Barrier_arrive { intervals; _ }
  | Message.Barrier_release { intervals; _ } ->
      if with_read_notices then begin
        let extra = Message.read_notice_bytes intervals in
        t.rt.stats.Sim.Stats.read_notice_bytes <-
          t.rt.stats.Sim.Stats.read_notice_bytes + extra;
        Sim.Stats.charge t.rt.stats Sim.Stats.Cvm_mods
          (t.rt.cost.Sim.Cost.byte_ns *. float_of_int extra)
      end
  | Message.Bitmap_req _ | Message.Bitmap_reply _ ->
      t.rt.stats.Sim.Stats.bitmap_round_bytes <-
        t.rt.stats.Sim.Stats.bitmap_round_bytes + Message.size ~with_read_notices msg
  | _ -> ());
  Sim.Net.send (net t) ~src:t.id ~dst msg

(* Deferred send used by handlers that model serialized master-side work:
   the message leaves after the master has "spent" the computation time. *)
let send_after t ~delay ~dst msg =
  if delay <= 0 then send t ~dst msg
  else Sim.Engine.schedule_after t.rt.engine ~delay (fun () -> send t ~dst msg)


let snapshot_bitmaps t interval =
  (* Freeze the current interval's access bitmaps; read notices are derived
     here (modification (ii) of the paper). Bitmaps stay local until the
     barrier master asks for them in the extra round. *)
  let id = Proto.Interval.id interval in
  let pages = Hashtbl.create 8 in
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) t.read_bits;
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) t.write_bits;
  Hashtbl.iter
    (fun page () ->
      let reads =
        match Hashtbl.find_opt t.read_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page t)
      in
      let writes =
        match Hashtbl.find_opt t.write_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page t)
      in
      if Mem.Bitmap.any_set reads then Proto.Interval.add_read_page interval page;
      Hashtbl.replace t.bitmap_store (id, page) { Racedetect.Detector.reads; writes };
      t.rt.stats.Sim.Stats.bitmaps_total <- t.rt.stats.Sim.Stats.bitmaps_total + 1;
      charge_category t Sim.Stats.Cvm_mods t.rt.cost.Sim.Cost.notice_setup_ns)
    pages;
  Hashtbl.iter
    (fun page () ->
      Array.unsafe_set t.read_cache page None;
      Array.unsafe_set t.write_cache page None)
    pages;
  Hashtbl.reset t.read_bits;
  Hashtbl.reset t.write_bits;
  if t.rt.cfg.Config.retain_sites then begin
    Hashtbl.iter
      (fun (page, word, kind) site ->
        t.rt.stats.Sim.Stats.site_entries <- t.rt.stats.Sim.Stats.site_entries + 1;
        Hashtbl.replace t.site_store (id, page, word, kind) site)
      t.cur_sites;
    Hashtbl.reset t.cur_sites
  end

let make_diffs t interval =
  (* Multi-writer: summarize this interval's writes as word-level diffs.
     With [stores_from_diffs], the diffs also provide the write bitmaps
     (section 6.5's optimization). *)
  let id = Proto.Interval.id interval in
  List.iter
    (fun page ->
      let entry = t.pages.(page) in
      match entry.twin with
      | None -> ()
      | Some twin ->
          let diff = Mem.Diff.create ~page ~twin ~current:entry.data in
          entry.twin <- None;
          entry.state <- P_read;
          if debug_enabled then
            debug_event t ~page "close diff p%d.%d (%d words)" id.Proto.Interval.proc
              id.Proto.Interval.index (Mem.Diff.word_count diff);
          Hashtbl.replace t.diff_store (id, page) (diff, interval.Proto.Interval.epoch);
          t.rt.stats.Sim.Stats.diffs_created <- t.rt.stats.Sim.Stats.diffs_created + 1;
          t.rt.stats.Sim.Stats.diff_words <-
            t.rt.stats.Sim.Stats.diff_words + Mem.Diff.word_count diff;
          charge_local t
            (t.rt.cost.Sim.Cost.diff_word_ns *. float_of_int (words_per_page t));
          if detect_on t && stores_from_diffs t then begin
            let writes = Mem.Diff.to_bitmap diff ~nbits:(words_per_page t) in
            let reads =
              match Hashtbl.find_opt t.bitmap_store (id, page) with
              | Some pair -> pair.Racedetect.Detector.reads
              | None -> Mem.Bitmap.create (words_per_page t)
            in
            Hashtbl.replace t.bitmap_store (id, page) { Racedetect.Detector.reads; writes }
          end)
    interval.Proto.Interval.write_pages

let home_of t page = page mod t.nprocs

let flush_diffs t interval =
  (* Home-based LRC: at each release, summarize this interval's writes as
     diffs and flush them eagerly to each page's home. Nothing is retained
     locally — the home copy is the authority faults fetch from. *)
  let id = Proto.Interval.id interval in
  List.iter
    (fun page ->
      let entry = t.pages.(page) in
      match entry.twin with
      | None -> ()
      | Some twin ->
          let diff = Mem.Diff.create ~page ~twin ~current:entry.data in
          entry.twin <- None;
          entry.state <- P_read;
          t.rt.stats.Sim.Stats.diffs_created <- t.rt.stats.Sim.Stats.diffs_created + 1;
          t.rt.stats.Sim.Stats.diff_words <-
            t.rt.stats.Sim.Stats.diff_words + Mem.Diff.word_count diff;
          charge_local t (t.rt.cost.Sim.Cost.diff_word_ns *. float_of_int (words_per_page t));
          send t ~dst:(home_of t page)
            (Message.Diff_flush { page; diffs = [ (id, diff) ]; vc = Proto.Vclock.copy t.vc }))
    interval.Proto.Interval.write_pages

let close_interval t =
  let interval = t.cur in
  interval.Proto.Interval.closed <- true;
  (* bitmaps first: under [stores_from_diffs] the diff pass merges the
     write bitmaps it derives into the entries the snapshot created *)
  if detect_on t then snapshot_bitmaps t interval;
  if t.rt.cfg.Config.protocol = Config.Multi_writer then make_diffs t interval
  else if t.rt.cfg.Config.protocol = Config.Home_based then flush_diffs t interval
  else begin
    (* single-writer: downgrade our writable pages so the first write of the
       next interval faults locally and generates a fresh write notice *)
    List.iter
      (fun page ->
        let entry = t.pages.(page) in
        if entry.state = P_write then entry.state <- P_read)
      t.rw_pages;
    t.rw_pages <- []
  end;
  t.my_closed <- interval :: t.my_closed;
  if tracing t then
    emit_sink t
      (Trace.Event.Interval_close
         {
           proc = t.id;
           index = (Proto.Interval.id interval).Proto.Interval.index;
           epoch = interval.Proto.Interval.epoch;
           write_pages = interval.Proto.Interval.write_pages;
           read_pages = interval.Proto.Interval.read_pages;
         });
  interval

let open_interval t =
  Proto.Vclock.incr t.vc t.id;
  let index = Proto.Vclock.get t.vc t.id in
  let interval =
    Proto.Interval.create ~proc:t.id ~index ~vc:(Proto.Vclock.copy t.vc) ~epoch:t.epoch
  in
  t.cur <- interval;
  Hashtbl.replace t.log (Proto.Interval.id interval) interval;
  t.max_seen.(t.id) <- index;
  if tracing t then
    emit_sink t (Trace.Event.Interval_open { proc = t.id; index; epoch = t.epoch });
  t.rt.stats.Sim.Stats.intervals_created <- t.rt.stats.Sim.Stats.intervals_created + 1;
  charge_local t t.rt.cost.Sim.Cost.interval_setup_ns

let learn t interval =
  (* Handler-safe half of incorporation: record the interval in the log.
     No page effects — those belong to the learning node's own NEXT
     synchronization point, not to the moment a message happens to arrive
     (the barrier master receives arrivals while its own interval is still
     open; invalidating mid-interval corrupts twins). *)
  let id = Proto.Interval.id interval in
  if not (Hashtbl.mem t.log id) then begin
    Hashtbl.replace t.log id interval;
    if id.Proto.Interval.index > t.max_seen.(id.Proto.Interval.proc) then
      t.max_seen.(id.Proto.Interval.proc) <- id.Proto.Interval.index
  end

let apply_notices t interval =
  (* Apply a remote interval's write notices to the page table, exactly
     once per interval, always from application context at a
     synchronization point (acquire or barrier departure). *)
  let id = Proto.Interval.id interval in
  if id.Proto.Interval.proc <> t.id && not (Hashtbl.mem t.applied id) then begin
    Hashtbl.replace t.applied id ();
    List.iter
      (fun page ->
        let entry = t.pages.(page) in
        match t.rt.cfg.Config.protocol with
        | Config.Single_writer ->
            if not entry.owner then begin
              entry.state <- P_invalid;
              if debug_enabled then
                debug_event t ~page "invalidate (notice from p%d)" id.Proto.Interval.proc
            end
        | Config.Multi_writer ->
            entry.pending <- id :: entry.pending;
            entry.state <- P_invalid
        | Config.Home_based ->
            (* a later fetch must cover this writer's knowledge *)
            Proto.Vclock.merge_into ~dst:entry.needed interval.Proto.Interval.vc;
            entry.state <- P_invalid
        | Config.Seq_consistent -> ())
      interval.Proto.Interval.write_pages
  end

let incorporate t interval =
  learn t interval;
  apply_notices t interval

let unseen_intervals t ~upto ~requester_vc =
  (* Intervals the requester has not seen, limited to what [upto] covers
     (the granter's knowledge at its release — exact LRC, no conservative
     extra edges, so the online detector and the offline oracle agree).

     Indexed walk over the interval log: only indices in the per-processor
     window (requester_vc, min(upto, max_seen)] can qualify, so the cost is
     the window size, not the number of intervals retained. Descending
     loops with prepends reproduce the ascending (proc, index) order the
     earlier sort-based implementation produced. Intervals pruned from the
     log are provably below every such window: their epoch predates the
     last barrier, whose merged clock every requester has since merged. *)
  let acc = ref [] in
  for proc = t.nprocs - 1 downto 0 do
    let hi =
      let u = Proto.Vclock.get upto proc and m = Array.unsafe_get t.max_seen proc in
      if u < m then u else m
    in
    for index = hi downto Proto.Vclock.get requester_vc proc + 1 do
      match Hashtbl.find_opt t.log { Proto.Interval.proc; index } with
      | Some interval when interval.Proto.Interval.closed -> acc := interval :: !acc
      | _ -> ()
    done
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Application-side blocking RPC plumbing                              *)

let push_reply t msg =
  t.replies <- t.replies @ [ msg ];
  Sim.Engine.wake t.rt.engine t.id

let await_reply t ~label pred =
  let rec scan acc = function
    | [] -> None
    | msg :: rest ->
        if pred msg then begin
          t.replies <- List.rev_append acc rest;
          Some msg
        end
        else scan (msg :: acc) rest
  in
  let rec wait () =
    match scan [] t.replies with
    | Some msg -> msg
    | None ->
        Sim.Engine.block ~label;
        wait ()
  in
  wait ()


(* ------------------------------------------------------------------ *)
(* Page faults                                                         *)

let fault_prologue t =
  flush_time t;
  Sim.Engine.advance t.rt.cost.Sim.Cost.fault_ns

let install_page t page bytes =
  let entry = t.pages.(page) in
  Bytes.blit bytes 0 (Mem.Page.raw entry.data) 0 (Bytes.length bytes);
  if debug_enabled then debug_event t ~page "install";
  t.rt.stats.Sim.Stats.pages_fetched <- t.rt.stats.Sim.Stats.pages_fetched + 1

let sw_read_fault t page =
  t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
  emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
  fault_prologue t;
  send t ~dst:0 (Message.Copy_req { page; requester = t.id });
  let reply =
    await_reply t ~label:(Printf.sprintf "copy of page %d" page) (function
      | Message.Copy_data { page = p; _ } -> p = page
      | _ -> false)
  in
  (match reply with
  | Message.Copy_data { data; _ } -> install_page t page data
  | _ -> assert false);
  send t ~dst:0 (Message.Page_done { page; requester = t.id });
  let entry = t.pages.(page) in
  entry.state <- P_read

let rec sw_write_fault t page =
  let entry = t.pages.(page) in
  t.rt.stats.Sim.Stats.write_faults <- t.rt.stats.Sim.Stats.write_faults + 1;
  emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  if entry.owner then begin
    (* local fault from the interval-start downgrade: just record the write
       notice; no messages move. The fault handling yields the processor,
       and an ownership transfer can be serviced during the yield — if it
       was, fall back to the remote path, or the write would land in a
       stale copy whose content never travels with the page. *)
    flush_time t;
    Sim.Engine.advance (t.rt.cost.Sim.Cost.fault_ns / 10);
    if not entry.owner then sw_write_fault t page
    else finish_sw_write_fault t page
  end
  else begin
    fault_prologue t;
    send t ~dst:0 (Message.Own_req { page; requester = t.id });
    let reply =
      await_reply t ~label:(Printf.sprintf "ownership of page %d" page) (function
        | Message.Own_data { page = p; _ } -> p = page
        | _ -> false)
    in
    (match reply with
    | Message.Own_data { data; _ } -> install_page t page data
    | _ -> assert false);
    send t ~dst:0 (Message.Page_done { page; requester = t.id });
    entry.owner <- true;
    finish_sw_write_fault t page
  end

and finish_sw_write_fault t page =
  let entry = t.pages.(page) in
  entry.state <- P_write;
  t.rw_pages <- page :: t.rw_pages;
  Proto.Interval.add_write_page t.cur page

let mw_apply_pending t page =
  let entry = t.pages.(page) in
  (match List.sort_uniq Proto.Interval.compare_ids entry.pending with
  | [] -> ()
  | pending ->
    t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
    emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
    fault_prologue t;
    (* group the needed diffs by creating processor; one request each *)
    let by_proc = Hashtbl.create 4 in
    List.iter
      (fun (id : Proto.Interval.id) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_proc id.proc) in
        Hashtbl.replace by_proc id.proc (id :: prev))
      pending;
    let expected = Hashtbl.length by_proc in
    emit_sink t (Trace.Event.Diff_fetch { proc = t.id; page; count = expected });
    Hashtbl.iter
      (fun proc ids -> send t ~dst:proc (Message.Diff_req { page; ids; requester = t.id }))
      by_proc;
    let received = ref [] in
    for _ = 1 to expected do
      let reply =
        await_reply t ~label:(Printf.sprintf "diffs for page %d" page) (function
          | Message.Diff_reply { page = p; _ } -> p = page
          | _ -> false)
      in
      match reply with
      | Message.Diff_reply { diffs; _ } -> received := diffs @ !received
      | _ -> assert false
    done;
    (* apply in happens-before order; concurrent diffs (false sharing or a
       true race) fall back to deterministic id order *)
    let ordered =
      List.sort
        (fun ((a : Proto.Interval.id), _) (b, _) ->
          match (Hashtbl.find_opt t.log a, Hashtbl.find_opt t.log b) with
          | Some ia, Some ib ->
              if Proto.Interval.precedes ia ib then -1
              else if Proto.Interval.precedes ib ia then 1
              else Proto.Interval.compare_ids a b
          | _ -> Proto.Interval.compare_ids a b)
        !received
    in
    List.iter
      (fun ((did : Proto.Interval.id), diff) ->
        Mem.Diff.apply diff entry.data;
        emit_sink t
          (Trace.Event.Diff_apply
             { proc = t.id; page; words = Mem.Diff.word_count diff });
        if debug_enabled then
          debug_event t ~page "apply diff p%d.%d (%d words)" did.proc did.index
            (Mem.Diff.word_count diff))
      ordered;
    Sim.Engine.advance_f
      (t.rt.cost.Sim.Cost.diff_word_ns
      *. float_of_int (List.fold_left (fun acc (_, d) -> acc + Mem.Diff.word_count d) 0 ordered));
    entry.pending <- []);
  entry.state <- P_read

let mw_write_fault t page =
  let entry = t.pages.(page) in
  if entry.state = P_invalid then mw_apply_pending t page;
  t.rt.stats.Sim.Stats.write_faults <- t.rt.stats.Sim.Stats.write_faults + 1;
  emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  flush_time t;
  Sim.Engine.advance (t.rt.cost.Sim.Cost.fault_ns / 10);
  entry.twin <- Some (Mem.Page.copy entry.data);
  charge_local t
    (t.rt.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  entry.state <- P_write;
  Proto.Interval.add_write_page t.cur page

(* Home-based LRC faults: fetch the whole page from its home, gated on
   the version knowledge accumulated from write notices. *)

let hb_read_fault t page =
  let entry = t.pages.(page) in
  t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
  emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
  fault_prologue t;
  send t ~dst:(home_of t page)
    (Message.Home_req { page; requester = t.id; needed = Proto.Vclock.copy entry.needed });
  let reply =
    await_reply t ~label:(Printf.sprintf "home copy of page %d" page) (function
      | Message.Home_data { page = p; _ } -> p = page
      | _ -> false)
  in
  (match reply with
  | Message.Home_data { data; _ } -> install_page t page data
  | _ -> assert false);
  entry.state <- P_read

let hb_write_fault t page =
  let entry = t.pages.(page) in
  if entry.state = P_invalid then hb_read_fault t page;
  t.rt.stats.Sim.Stats.write_faults <- t.rt.stats.Sim.Stats.write_faults + 1;
  emit_sink t (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  flush_time t;
  Sim.Engine.advance (t.rt.cost.Sim.Cost.fault_ns / 10);
  entry.twin <- Some (Mem.Page.copy entry.data);
  charge_local t (t.rt.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  entry.state <- P_write;
  Proto.Interval.add_write_page t.cur page

(* ------------------------------------------------------------------ *)
(* Shared-memory access operations                                     *)

let instrument_access t page word kind ~site =
  (* The inserted analysis-routine call: a procedure call plus the check
     that decides shared vs private and sets the per-page bitmap bit. *)
  charge_category t Sim.Stats.Proc_call t.rt.cost.Sim.Cost.proc_call_ns;
  charge_category t Sim.Stats.Access_check t.rt.cost.Sim.Cost.access_check_ns;
  let cache =
    match kind with Proto.Race.Read -> t.read_cache | Proto.Race.Write -> t.write_cache
  in
  let bitmap =
    match Array.unsafe_get cache page with
    | Some bm -> bm
    | None ->
        let bm = Mem.Bitmap.create (words_per_page t) in
        let table =
          match kind with Proto.Race.Read -> t.read_bits | Proto.Race.Write -> t.write_bits
        in
        Hashtbl.replace table page bm;
        Array.unsafe_set cache page (Some bm);
        bm
  in
  Mem.Bitmap.set bitmap word;
  if t.rt.cfg.Config.retain_sites then begin
    (* the extra bookkeeping the paper's section 6.1 prices out *)
    charge_category t Sim.Stats.Access_check 60.0;
    let key = (page, word, kind) in
    if not (Hashtbl.mem t.cur_sites key) then Hashtbl.replace t.cur_sites key site
  end

let bad_shared addr =
  invalid_arg (Printf.sprintf "Node: address 0x%x outside the shared segment" addr)

let bad_aligned addr = invalid_arg (Printf.sprintf "Node: unaligned shared access 0x%x" addr)

let check_addr t addr =
  if t.g_fast then begin
    if addr < t.g_base || addr >= t.g_limit then bad_shared addr;
    if addr land t.g_word_mask <> 0 then bad_aligned addr
  end
  else begin
    if not (Mem.Geometry.in_shared t.rt.geometry addr) then bad_shared addr;
    if addr mod t.rt.geometry.Mem.Geometry.word_size <> 0 then bad_aligned addr
  end

(* Page/word of a checked address: shifts and masks on the fast path, the
   division-based {!Mem.Geometry} functions otherwise. *)
let page_of t addr =
  if t.g_fast then (addr - t.g_base) lsr t.g_page_shift
  else Mem.Geometry.page_of_addr t.rt.geometry addr

let word_of t addr =
  if t.g_fast then (addr land t.g_page_mask) lsr t.g_word_shift
  else Mem.Geometry.word_in_page t.rt.geometry addr

let observe t ~site ~addr kind =
  match t.access_observer with
  | Some f -> f ~site ~addr kind
  | None -> ()

(* Shared prologue of every read/write: cost charge, statistics,
   instrumentation, watch-mode observation, oracle trace. *)
(* An elided site skips the inserted analysis-routine call entirely (no
   procedure-call or check charge, no bitmap bit) but keeps the base
   instruction charge, the statistics, the watch-mode observation and
   the oracle trace — so elision changes cost and bitmaps only, never
   what the oracle or a watch run can see. *)
let read_note t ~site addr page word =
  charge_local t t.rt.cost.Sim.Cost.instr_ns;
  t.rt.stats.Sim.Stats.shared_reads <- t.rt.stats.Sim.Stats.shared_reads + 1;
  if detect_on t then
    if Coherence.Elide.mem t.elide site then
      t.rt.stats.Sim.Stats.elided_checks <- t.rt.stats.Sim.Stats.elided_checks + 1
    else instrument_access t page word Proto.Race.Read ~site;
  observe t ~site ~addr Proto.Race.Read;
  trace_read t addr

let write_note t ~site addr page word =
  charge_local t t.rt.cost.Sim.Cost.instr_ns;
  t.rt.stats.Sim.Stats.shared_writes <- t.rt.stats.Sim.Stats.shared_writes + 1;
  if detect_on t && not (stores_from_diffs t) then
    if Coherence.Elide.mem t.elide site then
      t.rt.stats.Sim.Stats.elided_checks <- t.rt.stats.Sim.Stats.elided_checks + 1
    else instrument_access t page word Proto.Race.Write ~site;
  observe t ~site ~addr Proto.Race.Write;
  trace_write t addr

(* For the caching protocols: resolve any fault so [entry.data] holds a
   coherent copy the access may touch. *)
let ensure_readable t page entry =
  match t.rt.cfg.Config.protocol with
  | Config.Single_writer -> (
      match entry.state with P_invalid -> sw_read_fault t page | P_read | P_write -> ())
  | Config.Multi_writer -> (
      match entry.state with P_invalid -> mw_apply_pending t page | P_read | P_write -> ())
  | Config.Home_based -> (
      match entry.state with P_invalid -> hb_read_fault t page | P_read | P_write -> ())
  | Config.Seq_consistent -> ()

let ensure_writable t page entry =
  match t.rt.cfg.Config.protocol with
  | Config.Single_writer -> (
      match entry.state with P_write -> () | P_invalid | P_read -> sw_write_fault t page)
  | Config.Multi_writer -> (
      match entry.state with P_write -> () | P_invalid | P_read -> mw_write_fault t page)
  | Config.Home_based -> (
      match entry.state with P_write -> () | P_invalid | P_read -> hb_write_fault t page)
  | Config.Seq_consistent -> ()

let sc_read t entry word addr =
  if t.id = 0 then Mem.Page.get_int64 entry.data word
  else begin
    flush_time t;
    send t ~dst:0 (Message.Sc_read_req { addr; requester = t.id });
    let reply =
      await_reply t ~label:"sc read" (function
        | Message.Sc_read_reply { addr = a; _ } -> a = addr
        | _ -> false)
    in
    match reply with Message.Sc_read_reply { value; _ } -> value | _ -> assert false
  end

let sc_write t entry page word addr value =
  if t.id = 0 then begin
    Mem.Page.set_int64 entry.data word value;
    Proto.Interval.add_write_page t.cur page
  end
  else begin
    flush_time t;
    send t ~dst:0 (Message.Sc_write_req { addr; value; requester = t.id });
    let _ack =
      await_reply t ~label:"sc write" (function
        | Message.Sc_write_ack { addr = a } -> a = addr
        | _ -> false)
    in
    Proto.Interval.add_write_page t.cur page
  end

let read_word t ?(site = "?") addr =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  read_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_read t entry word addr
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_int64 entry.data word

let read_word_int t ?(site = "?") addr =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  read_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> Int64.to_int (sc_read t entry word addr)
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_int entry.data word

let read_word_float t ?(site = "?") addr =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  read_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> Int64.float_of_bits (sc_read t entry word addr)
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_float entry.data word

let write_word t ?(site = "?") addr value =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  write_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr value
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_int64 entry.data word value;
      if debug_enabled then debug_event t ~page "write addr=0x%x val=%Ld" addr value

let write_word_int t ?(site = "?") addr value =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  write_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr (Int64.of_int value)
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_int entry.data word value;
      if debug_enabled then
        debug_event t ~page "write addr=0x%x val=%Ld" addr (Int64.of_int value)

let write_word_float t ?(site = "?") addr value =
  check_addr t addr;
  let page = page_of t addr in
  let word = word_of t addr in
  write_note t ~site addr page word;
  let entry = Array.unsafe_get t.pages page in
  match t.rt.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr (Int64.bits_of_float value)
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_float entry.data word value;
      if debug_enabled then
        debug_event t ~page "write addr=0x%x val=%Ld" addr (Int64.bits_of_float value)

let touch_private t n =
  (* n private accesses that survived static analysis: they pay the full
     analysis-routine cost at runtime but never set a bitmap bit. *)
  t.rt.stats.Sim.Stats.private_accesses <- t.rt.stats.Sim.Stats.private_accesses + n;
  let fn = float_of_int n in
  charge_local t (t.rt.cost.Sim.Cost.instr_ns *. fn);
  if detect_on t then begin
    charge_category t Sim.Stats.Proc_call (t.rt.cost.Sim.Cost.proc_call_ns *. fn);
    charge_category t Sim.Stats.Access_check (t.rt.cost.Sim.Cost.access_check_ns *. fn)
  end

let compute t ops = charge_local t (t.rt.cost.Sim.Cost.instr_ns *. ops)

let idle t ns =
  (* unlike [compute], this advances simulated time immediately — used to
     stage interleavings (litmus tests, scenario builders) *)
  flush_time t;
  Sim.Engine.advance (int_of_float ns)

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let lock_state t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some l -> l
  | None ->
      let l =
        {
          held = false;
          expecting = false;
          pending_seq = None;
          next_request = None;
          release_vc = None;
        }
      in
      Hashtbl.add t.locks lock l;
      l

let grant_lock t ~lock ~requester ~requester_vc =
  (* The consistency payload is limited to the granter's knowledge at its
     last release of this lock (exact happens-before-1: no conservative
     extra edges, so the detector and the offline oracle agree). *)
  let l = lock_state t lock in
  let upto =
    match l.release_vc with Some vc -> vc | None -> Proto.Vclock.create t.nprocs
  in
  let intervals = unseen_intervals t ~upto ~requester_vc in
  (match t.rt.recorder with
  | Some recorder -> Coherence.Sync_trace.record recorder ~lock ~grantee:requester
  | None -> ());
  send t ~dst:requester
    (Message.Lock_grant { lock; granter_vc = Proto.Vclock.copy upto; intervals })

let lock t lock_id =
  flush_time t;
  t.rt.stats.Sim.Stats.lock_acquires <- t.rt.stats.Sim.Stats.lock_acquires + 1;
  let l = lock_state t lock_id in
  if l.held then invalid_arg "Node.lock: lock already held (not reentrant)";
  l.expecting <- true;
  send t ~dst:0
    (Message.Lock_req { lock = lock_id; requester = t.id; vc = Proto.Vclock.copy t.vc });
  let reply =
    await_reply t ~label:(Printf.sprintf "grant of lock %d" lock_id) (function
      | Message.Lock_grant { lock; _ } -> lock = lock_id
      | _ -> false)
  in
  match reply with
  | Message.Lock_grant { granter_vc; intervals; _ } ->
      let _ = close_interval t in
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.vc granter_vc;
      open_interval t;
      l.expecting <- false;
      l.pending_seq <- None;
      l.held <- true;
      emit_trace t (Racedetect.Oracle.Acquire lock_id);
      if tracing t then
        emit_sink t
          (Trace.Event.Lock_acquire
             { proc = t.id; lock = lock_id; vc = Proto.Vclock.copy t.vc })
  | _ -> assert false

let unlock t lock_id =
  flush_time t;
  let l = lock_state t lock_id in
  if not l.held then invalid_arg "Node.unlock: lock not held";
  let _ = close_interval t in
  l.release_vc <- Some (Proto.Vclock.copy t.vc);
  open_interval t;
  l.held <- false;
  emit_trace t (Racedetect.Oracle.Release lock_id);
  if tracing t then
    emit_sink t
      (Trace.Event.Lock_release
         { proc = t.id; lock = lock_id; vc = Proto.Vclock.copy t.vc });
  match l.next_request with
  | Some (requester, requester_vc) ->
      l.next_request <- None;
      grant_lock t ~lock:lock_id ~requester ~requester_vc
  | None -> ()

(* Handler-side lock plumbing. *)

let on_lock_fwd t ~lock ~requester ~vc ~seq =
  (* We are (or recently were) this lock's token holder. The forwarded
     request must be granted at the point in the chain the manager chose:
     before our own pending acquire if the manager sequenced it earlier
     (we were the last releaser), after our release if it sequenced it
     later. Manager acks arrive before any later-sequenced forward (FIFO
     links, acks are never larger), so an unknown [pending_seq] means our
     own request has not been sequenced yet. *)
  let l = lock_state t lock in
  if requester = t.id then begin
    (* the token chain reached ourselves: take the lock directly *)
    assert l.expecting;
    grant_lock t ~lock ~requester ~requester_vc:vc
  end
  else begin
    let ordered_after_us =
      l.held
      || (l.expecting
         && match l.pending_seq with Some ours -> seq > ours | None -> false)
    in
    if ordered_after_us then begin
      assert (l.next_request = None);
      l.next_request <- Some (requester, vc)
    end
    else grant_lock t ~lock ~requester ~requester_vc:vc
  end

let on_lock_ack t ~lock ~seq =
  let l = lock_state t lock in
  if l.expecting then l.pending_seq <- Some seq

let lock_mgr_state t lock =
  match Hashtbl.find_opt t.lock_mgrs lock with
  | Some m -> m
  | None ->
      let m = { token = 0; next_seq = 0; parked = Queue.create () } in
      Hashtbl.add t.lock_mgrs lock m;
      m

let forward_lock_req t m = function
  | Message.Lock_req { lock; requester; vc } ->
      let target = m.token in
      let seq = m.next_seq in
      m.next_seq <- seq + 1;
      m.token <- requester;
      let delay = t.rt.cost.Sim.Cost.lock_manager_ns in
      send_after t ~delay ~dst:requester (Message.Lock_ack { lock; seq });
      send_after t ~delay ~dst:target (Message.Lock_fwd { lock; requester; vc; seq })
  | _ -> assert false

let rec drain_parked_requests t m ~lock =
  (* Replay mode: release parked requests in the recorded grant order. *)
  match t.rt.cfg.Config.replay with
  | None -> assert false
  | Some trace -> (
      match Coherence.Sync_trace.next_grantee trace ~lock with
      | None ->
          (* past the recorded history: fall back to FIFO *)
          if not (Queue.is_empty m.parked) then begin
            forward_lock_req t m (Queue.pop m.parked);
            drain_parked_requests t m ~lock
          end
      | Some grantee ->
          let found = ref None in
          let rest = Queue.create () in
          Queue.iter
            (fun msg ->
              match msg with
              | Message.Lock_req { requester; _ } when requester = grantee && !found = None ->
                  found := Some msg
              | _ -> Queue.add msg rest)
            m.parked;
          (match !found with
          | Some msg ->
              Queue.clear m.parked;
              Queue.transfer rest m.parked;
              Coherence.Sync_trace.advance trace ~lock;
              forward_lock_req t m msg;
              drain_parked_requests t m ~lock
          | None -> ()))

let on_lock_req t msg =
  match msg with
  | Message.Lock_req { lock; _ } -> (
      let m = lock_mgr_state t lock in
      match t.rt.cfg.Config.replay with
      | None -> forward_lock_req t m msg
      | Some _ ->
          Queue.add msg m.parked;
          drain_parked_requests t m ~lock)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Barrier master (runs at processor 0, in handler context)            *)

let closed_unseen t ~vc =
  (* Same indexed walk as [unseen_intervals], with the master's whole
     knowledge ([max_seen]) as the upper bound. *)
  let acc = ref [] in
  for proc = t.nprocs - 1 downto 0 do
    for index = Array.unsafe_get t.max_seen proc downto Proto.Vclock.get vc proc + 1 do
      match Hashtbl.find_opt t.log { Proto.Interval.proc; index } with
      | Some interval when interval.Proto.Interval.closed -> acc := interval :: !acc
      | _ -> ()
    done
  done;
  !acc

let master_finish_barrier t ~delay ~races =
  let b = t.barrier in
  let races =
    if t.rt.cfg.Config.first_race_only && b.race_seen then []
    else begin
      if races <> [] then b.race_seen <- true;
      races
    end
  in
  t.rt.races := races @ !(t.rt.races);
  if tracing t then List.iter (fun r -> emit_sink t (Trace.Event.Race r)) races;
  t.rt.stats.Sim.Stats.races_reported <- t.rt.stats.Sim.Stats.races_reported + List.length races;
  t.rt.stats.Sim.Stats.barriers <- t.rt.stats.Sim.Stats.barriers + 1;
  List.iter
    (fun (node, vc, _) ->
      let intervals = closed_unseen t ~vc in
      send_after t ~delay ~dst:node
        (Message.Barrier_release
           { master_vc = Proto.Vclock.copy b.master_vc; intervals; check_list_size = b.check_bytes }))
    b.arrivals;
  b.arrivals <- [];
  b.pending_checks <- [];
  b.check_bytes <- 0

let master_run_detection t =
  let b = t.barrier in
  let stats = t.rt.stats in
  let cost = t.rt.cost in
  let epoch_intervals =
    List.concat_map (fun (_, _, intervals) -> intervals) b.arrivals
    |> List.filter (fun iv -> iv.Proto.Interval.epoch = b.processing_epoch)
  in
  let before = stats.Sim.Stats.interval_comparisons in
  let probe =
    if tracing t then
      Some
        (fun (e : Racedetect.Checklist.entry) ->
          emit_sink t (Trace.Event.Check_entry { a = e.a; b = e.b; pages = e.pages }))
    else None
  in
  let n_concurrent, entries =
    Racedetect.Detector.concurrent_check_list ~stats ?probe epoch_intervals
  in
  let comparisons = stats.Sim.Stats.interval_comparisons - before in
  let intervals_ns =
    (cost.Sim.Cost.vv_compare_ns *. float_of_int comparisons)
    +. (200.0 *. float_of_int n_concurrent)
  in
  Sim.Stats.charge stats Sim.Stats.Intervals intervals_ns;
  let delay = int_of_float intervals_ns in
  if entries = [] then master_finish_barrier t ~delay ~races:[]
  else begin
    b.pending_checks <- entries;
    b.check_bytes <- Racedetect.Checklist.size_bytes entries;
    Hashtbl.reset b.collected;
    let by_proc = Racedetect.Checklist.requests_by_proc entries ~nprocs:t.nprocs in
    b.expected_replies <- Array.fold_left (fun n r -> if r = [] then n else n + 1) 0 by_proc;
    Array.iteri
      (fun proc requests ->
        if requests <> [] then begin
          stats.Sim.Stats.bitmaps_requested <-
            stats.Sim.Stats.bitmaps_requested + List.length requests;
          send_after t ~delay ~dst:proc (Message.Bitmap_req { requests })
        end)
      by_proc
  end

let master_on_arrive t ~from_ ~vc ~intervals =
  let b = t.barrier in
  if b.arrivals = [] then begin
    b.master_vc <- Proto.Vclock.create t.nprocs;
    b.processing_epoch <- t.epoch
  end;
  b.arrivals <- (from_, vc, intervals) :: b.arrivals;
  (* learn only: the master's page-level effects happen when it processes
     its own Barrier_release, like every other node *)
  List.iter (learn t) intervals;
  Proto.Vclock.merge_into ~dst:b.master_vc vc;
  if List.length b.arrivals = t.nprocs then
    if detect_on t then master_run_detection t
    else master_finish_barrier t ~delay:0 ~races:[]

let empty_bitmap_pair t =
  {
    Racedetect.Detector.reads = Mem.Bitmap.create (words_per_page t);
    writes = Mem.Bitmap.create (words_per_page t);
  }

let master_on_bitmap_reply t ~bitmaps =
  let b = t.barrier in
  List.iter
    (fun (item : Message.bitmap_item) ->
      Hashtbl.replace b.collected (item.interval, item.page)
        { Racedetect.Detector.reads = item.reads; writes = item.writes })
    bitmaps;
  b.expected_replies <- b.expected_replies - 1;
  if b.expected_replies = 0 then begin
    let stats = t.rt.stats in
    let source id ~page =
      match Hashtbl.find_opt b.collected (id, page) with
      | Some pair -> pair
      | None -> empty_bitmap_pair t
    in
    let before = stats.Sim.Stats.bitmap_comparisons in
    let races =
      List.concat_map
        (Racedetect.Detector.races_of_entry ~stats ~geometry:t.rt.geometry
           ~epoch:b.processing_epoch ~source)
        b.pending_checks
      |> Proto.Race.dedup
    in
    let compared = stats.Sim.Stats.bitmap_comparisons - before in
    let bitmaps_ns =
      t.rt.cost.Sim.Cost.bitmap_word_ns
      *. float_of_int (3 * compared * words_per_page t)
    in
    Sim.Stats.charge stats Sim.Stats.Bitmaps bitmaps_ns;
    master_finish_barrier t ~delay:(int_of_float bitmaps_ns) ~races
  end

(* ------------------------------------------------------------------ *)
(* Barrier (application side)                                          *)

let prune_intervals t =
  (* Trace-neutral history pruning, run after every barrier: a log entry
     older than the previous epoch can never be requested again, because
     every vc window a requester can present is bounded below by the last
     barrier's merged clock, which covers all such intervals. Entries still
     named by a page's pending write notices are retained — the
     happens-before sort in [mw_apply_pending] consults them. *)
  let floor = t.epoch - 1 in
  let pinned = Hashtbl.create 16 in
  Array.iter
    (fun entry ->
      match entry.pending with
      | [] -> ()
      | pending -> List.iter (fun id -> Hashtbl.replace pinned id ()) pending)
    t.pages;
  let doomed =
    Hashtbl.fold
      (fun id (interval : Proto.Interval.t) acc ->
        if interval.Proto.Interval.epoch < floor && not (Hashtbl.mem pinned id) then
          id :: acc
        else acc)
      t.log []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.log id;
      Hashtbl.remove t.applied id)
    doomed

let gc_diffs t =
  (* Interval garbage collection (TreadMarks-style lineage GC), gated on
     [Config.gc_epochs]. Two phases, one barrier apart: at every k-th
     epoch boundary each node validates its invalid pages — forcing every
     pending diff to be fetched now — and schedules a drop; at the next
     barrier the diffs whose creating epoch predates that validation are
     dropped. A diff can still be requested between the validation and the
     drop (the requester cannot reach the dropping node's next barrier
     before its own validation fetches complete), which is why the drop
     waits a barrier. *)
  match t.rt.cfg.Config.gc_epochs with
  | None -> ()
  | Some k when k <= 0 -> ()
  | Some k ->
      if t.gc_drop_bound >= 0 then begin
        let bound = t.gc_drop_bound in
        t.gc_drop_bound <- -1;
        let doomed =
          Hashtbl.fold
            (fun key (_, epoch) acc -> if epoch < bound then key :: acc else acc)
            t.diff_store []
        in
        List.iter (Hashtbl.remove t.diff_store) doomed;
        t.rt.stats.Sim.Stats.diffs_gced <-
          t.rt.stats.Sim.Stats.diffs_gced + List.length doomed
      end;
      if t.epoch mod k = 0 && t.rt.cfg.Config.protocol = Config.Multi_writer then begin
        Array.iteri
          (fun page entry ->
            match entry.pending with [] -> () | _ -> mw_apply_pending t page)
          t.pages;
        t.gc_drop_bound <- t.epoch
      end

let barrier t =
  flush_time t;
  let entered_epoch = t.epoch in
  emit_sink t (Trace.Event.Barrier_enter { proc = t.id; epoch = entered_epoch });
  let _ = close_interval t in
  emit_trace t Racedetect.Oracle.Barrier;
  let intervals = List.rev t.my_closed in
  t.my_closed <- [];
  send t ~dst:0
    (Message.Barrier_arrive { from_ = t.id; vc = Proto.Vclock.copy t.vc; intervals });
  open_interval t;
  let reply =
    await_reply t ~label:"barrier release" (function
      | Message.Barrier_release _ -> true
      | _ -> false)
  in
  match reply with
  | Message.Barrier_release { master_vc; intervals; _ } ->
      let _ = close_interval t in
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.vc master_vc;
      t.epoch <- t.epoch + 1;
      open_interval t;
      if tracing t then
        emit_sink t
          (Trace.Event.Barrier_leave
             { proc = t.id; epoch = entered_epoch; vc = Proto.Vclock.copy t.vc });
      Hashtbl.reset t.bitmap_store;
      prune_intervals t;
      gc_diffs t
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Page manager (single-writer ownership directory at processor 0)     *)

let process_page_request t m msg =
  m.busy <- true;
  match msg with
  | Message.Copy_req { page; requester } ->
      send t ~dst:m.page_owner (Message.Copy_fwd { page; requester })
  | Message.Own_req { page; requester } ->
      let previous = m.page_owner in
      m.page_owner <- requester;
      send t ~dst:previous (Message.Own_fwd { page; requester })
  | _ -> assert false

let on_page_request t msg =
  let page =
    match msg with
    | Message.Copy_req { page; _ } | Message.Own_req { page; _ } -> page
    | _ -> assert false
  in
  let m = t.page_mgrs.(page) in
  if m.busy then Queue.add msg m.waiting else process_page_request t m msg

let on_page_done t ~page =
  let m = t.page_mgrs.(page) in
  m.busy <- false;
  match Queue.take_opt m.waiting with
  | Some msg -> process_page_request t m msg
  | None -> ()

let on_copy_fwd t ~page ~requester =
  let entry = t.pages.(page) in
  if debug_enabled then debug_event t ~page "copy_fwd -> p%d" requester;
  charge_local t (t.rt.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  send t ~dst:requester
    (Message.Copy_data { page; data = Bytes.copy (Mem.Page.raw entry.data) })

let on_own_fwd t ~page ~requester =
  let entry = t.pages.(page) in
  entry.owner <- false;
  if entry.state = P_write then entry.state <- P_read;
  if debug_enabled then debug_event t ~page "own_fwd -> p%d" requester;
  send t ~dst:requester
    (Message.Own_data { page; data = Bytes.copy (Mem.Page.raw entry.data) })

(* ------------------------------------------------------------------ *)
(* Home-based LRC service (runs at each page's home)                   *)

let home_state t page =
  match Hashtbl.find_opt t.home_pages page with
  | Some home -> home
  | None ->
      let geometry = t.rt.geometry in
      let home =
        {
          home_data =
            Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size
              ~word_size:geometry.Mem.Geometry.word_size;
          home_version = Proto.Vclock.create t.nprocs;
          home_waiting = [];
        }
      in
      Hashtbl.add t.home_pages page home;
      home

let home_serve t home page requester =
  send t ~dst:requester (Message.Home_data { page; data = Bytes.copy (Mem.Page.raw home.home_data) })

let on_diff_flush t ~page ~diffs ~vc =
  let home = home_state t page in
  List.iter
    (fun (_, diff) ->
      Mem.Diff.apply diff home.home_data;
      emit_sink t
        (Trace.Event.Diff_apply { proc = t.id; page; words = Mem.Diff.word_count diff }))
    diffs;
  Proto.Vclock.merge_into ~dst:home.home_version vc;
  (* a newly covered version may satisfy parked fetches *)
  let ready, still_waiting =
    List.partition
      (fun (_, needed) -> Proto.Vclock.leq needed home.home_version)
      home.home_waiting
  in
  home.home_waiting <- still_waiting;
  List.iter (fun (requester, _) -> home_serve t home page requester) ready

let on_home_req t ~page ~requester ~needed =
  let home = home_state t page in
  if Proto.Vclock.leq needed home.home_version then home_serve t home page requester
  else
    (* the flush carrying the needed version is still in flight *)
    home.home_waiting <- (requester, needed) :: home.home_waiting

(* ------------------------------------------------------------------ *)
(* Diff and bitmap serving                                             *)

let on_diff_req t ~page ~ids ~requester =
  let diffs =
    List.map
      (fun id ->
        match Hashtbl.find_opt t.diff_store (id, page) with
        | Some (diff, _epoch) -> (id, diff)
        | None ->
            invalid_arg
              (Printf.sprintf "Node %d: no diff for page %d interval p%d.%d" t.id page
                 id.Proto.Interval.proc id.Proto.Interval.index))
      ids
  in
  send t ~dst:requester (Message.Diff_reply { page; diffs })

let on_bitmap_req t ~requests =
  let bitmaps =
    List.map
      (fun (interval, page) ->
        let pair =
          match Hashtbl.find_opt t.bitmap_store (interval, page) with
          | Some pair -> pair
          | None -> empty_bitmap_pair t
        in
        {
          Message.interval;
          page;
          reads = pair.Racedetect.Detector.reads;
          writes = pair.Racedetect.Detector.writes;
        })
      requests
  in
  send t ~dst:0 (Message.Bitmap_reply { from_ = t.id; bitmaps })

(* ------------------------------------------------------------------ *)
(* Sequential-consistency home-node service                            *)

let on_sc_read t ~addr ~requester =
  let page = Mem.Geometry.page_of_addr t.rt.geometry addr in
  let word = Mem.Geometry.word_in_page t.rt.geometry addr in
  let value = Mem.Page.get_int64 t.pages.(page).data word in
  send t ~dst:requester (Message.Sc_read_reply { addr; value })

let on_sc_write t ~addr ~value ~requester =
  let page = Mem.Geometry.page_of_addr t.rt.geometry addr in
  let word = Mem.Geometry.word_in_page t.rt.geometry addr in
  Mem.Page.set_int64 t.pages.(page).data word value;
  send t ~dst:requester (Message.Sc_write_ack { addr })

(* ------------------------------------------------------------------ *)
(* Message dispatch (runs in handler context at delivery time)         *)

let handle_message t msg =
  match msg with
  (* replies the application coroutine is blocked on *)
  | Message.Lock_grant _ | Message.Barrier_release _ | Message.Copy_data _
  | Message.Own_data _ | Message.Diff_reply _ | Message.Home_data _
  | Message.Sc_read_reply _ | Message.Sc_write_ack _ ->
      push_reply t msg
  (* central services *)
  | Message.Lock_req _ -> on_lock_req t msg
  | Message.Lock_ack { lock; seq } -> on_lock_ack t ~lock ~seq
  | Message.Lock_fwd { lock; requester; vc; seq } -> on_lock_fwd t ~lock ~requester ~vc ~seq
  | Message.Barrier_arrive { from_; vc; intervals } ->
      master_on_arrive t ~from_ ~vc ~intervals
  | Message.Bitmap_req { requests } -> on_bitmap_req t ~requests
  | Message.Bitmap_reply { bitmaps; _ } -> master_on_bitmap_reply t ~bitmaps
  | Message.Copy_req _ | Message.Own_req _ -> on_page_request t msg
  | Message.Copy_fwd { page; requester } -> on_copy_fwd t ~page ~requester
  | Message.Own_fwd { page; requester } -> on_own_fwd t ~page ~requester
  | Message.Page_done { page; _ } -> on_page_done t ~page
  | Message.Diff_req { page; ids; requester } -> on_diff_req t ~page ~ids ~requester
  | Message.Diff_flush { page; diffs; vc } -> on_diff_flush t ~page ~diffs ~vc
  | Message.Home_req { page; requester; needed } -> on_home_req t ~page ~requester ~needed
  | Message.Sc_read_req { addr; requester } -> on_sc_read t ~addr ~requester
  | Message.Sc_write_req { addr; value; requester } -> on_sc_write t ~addr ~value ~requester

(* ------------------------------------------------------------------ *)
(* Memory allocation                                                   *)

let malloc t ?name ?(align = 0) bytes =
  (* Bump allocation over the shared segment. SPMD programs call this at
     the same program points on every node, so all nodes compute identical
     addresses — the way CVM applications use G_MALLOC. Names land in the
     cluster symbol table (registered once, by processor 0). *)
  if bytes < 0 then invalid_arg "Node.malloc";
  let word = t.rt.geometry.Mem.Geometry.word_size in
  let round v quantum = (v + quantum - 1) / quantum * quantum in
  let start =
    if align > 0 then round t.alloc_next align else round t.alloc_next word
  in
  let next = start + round bytes word in
  if next > Mem.Geometry.limit t.rt.geometry then
    invalid_arg "Node.malloc: shared segment exhausted";
  t.alloc_next <- next;
  (match name with
  | Some name when t.id = 0 -> Mem.Symtab.register t.rt.symtab ~name ~base:start ~bytes
  | _ -> ());
  start

let set_alloc_next t addr = t.alloc_next <- addr

let set_access_observer t f = t.access_observer <- Some f

let retained_site t ~interval ~page ~word ~kind =
  Hashtbl.find_opt t.site_store (interval, page, word, kind)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create rt ~id ~nprocs =
  let geometry = rt.geometry in
  let page_size = geometry.Mem.Geometry.page_size in
  let word_size = geometry.Mem.Geometry.word_size in
  let is_pow2 n = n > 0 && n land (n - 1) = 0 in
  let shift_of n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n
  in
  let g_fast =
    is_pow2 page_size && is_pow2 word_size
    && geometry.Mem.Geometry.base land (page_size - 1) = 0
  in
  let pages =
    Array.init geometry.Mem.Geometry.pages (fun _ ->
        {
          data =
            Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size
              ~word_size:geometry.Mem.Geometry.word_size;
          state = P_read;
          owner = id = 0;
          twin = None;
          pending = [];
          needed = Proto.Vclock.create nprocs;
        })
  in
  let vc = Proto.Vclock.create nprocs in
  let t =
    {
      rt;
      id;
      nprocs;
      vc;
      cur = Proto.Interval.create ~proc:id ~index:0 ~vc:(Proto.Vclock.copy vc) ~epoch:0;
      epoch = 0;
      log = Hashtbl.create 64;
      applied = Hashtbl.create 64;
      max_seen = Array.make nprocs 0;
      my_closed = [];
      pages;
      rw_pages = [];
      locks = Hashtbl.create 8;
      read_bits = Hashtbl.create 16;
      write_bits = Hashtbl.create 16;
      read_cache = Array.make geometry.Mem.Geometry.pages None;
      write_cache = Array.make geometry.Mem.Geometry.pages None;
      bitmap_store = Hashtbl.create 64;
      diff_store = Hashtbl.create 64;
      gc_drop_bound = -1;
      g_fast;
      g_base = geometry.Mem.Geometry.base;
      g_limit = Mem.Geometry.limit geometry;
      g_page_shift = (if g_fast then shift_of page_size else 0);
      g_page_mask = page_size - 1;
      g_word_shift = (if g_fast then shift_of word_size else 0);
      g_word_mask = word_size - 1;
      cur_sites = Hashtbl.create 64;
      site_store = Hashtbl.create 256;
      elide = Coherence.Elide.create rt.cfg.Config.elide_sites;
      replies = [];
      debt = Array.make 1 0.0;
      alloc_next = geometry.Mem.Geometry.base;
      access_observer = None;
      page_mgrs =
        Array.init
          (if id = 0 then geometry.Mem.Geometry.pages else 0)
          (fun _ -> { page_owner = 0; busy = false; waiting = Queue.create () });
      lock_mgrs = Hashtbl.create 8;
      home_pages = Hashtbl.create 16;
      barrier =
        {
          arrivals = [];
          pending_checks = [];
          expected_replies = 0;
          collected = Hashtbl.create 64;
          race_seen = false;
          master_vc = Proto.Vclock.create nprocs;
          check_bytes = 0;
          processing_epoch = 0;
        };
    }
  in
  (* open the first real interval (index 1) *)
  open_interval t;
  t

let id t = t.id
let nprocs t = t.nprocs
let epoch t = t.epoch
let current_interval t = t.cur
let geometry t = t.rt.geometry
let cost t = t.rt.cost
let stats t = t.rt.stats
let config t = t.rt.cfg

let coherent_page_raw t page =
  (* This node's copy of [page], but only if it is coherent: a valid copy
     with no pending write notices. An invalidated copy's bytes are a
     timing-dependent stale snapshot (false sharing), while after the
     final barrier every still-valid copy provably matches the
     authoritative contents — all coherent copies of a page agree. *)
  let entry = t.pages.(page) in
  if entry.state = P_invalid || entry.pending <> [] then None
  else Some (Mem.Page.raw entry.data)

let service_diagnostics t =
  (* Central-service queue depths at the manager, for the deadlock
     watchdog's structured diagnosis. *)
  let lines = ref [] in
  Hashtbl.iter
    (fun lck m ->
      if not (Queue.is_empty m.parked) then
        lines :=
          Printf.sprintf "lock %d: %d request(s) parked at the manager" lck
            (Queue.length m.parked)
          :: !lines)
    t.lock_mgrs;
  Array.iteri
    (fun page m ->
      if not (Queue.is_empty m.waiting) then
        lines :=
          Printf.sprintf "page %d: %d request(s) queued at the page manager (busy=%b)"
            page (Queue.length m.waiting) m.busy
          :: !lines)
    t.page_mgrs;
  if t.barrier.arrivals <> [] then
    lines :=
      Printf.sprintf "barrier: %d of %d arrival(s) at the master"
        (List.length t.barrier.arrivals)
        t.nprocs
      :: !lines;
  List.sort compare !lines

let view t =
  (* The backend-independent processor handle (a record of closures over
     this node) that application bodies receive — the surface shared with
     the bus-cache backends. *)
  {
    Coherence.Node.id = t.id;
    nprocs = t.nprocs;
    geometry = t.rt.geometry;
    malloc = (fun ?name ?align bytes -> malloc t ?name ?align bytes);
    read_word = (fun ?site addr -> read_word t ?site addr);
    write_word = (fun ?site addr value -> write_word t ?site addr value);
    read_word_int = (fun ?site addr -> read_word_int t ?site addr);
    write_word_int = (fun ?site addr value -> write_word_int t ?site addr value);
    read_word_float = (fun ?site addr -> read_word_float t ?site addr);
    write_word_float = (fun ?site addr value -> write_word_float t ?site addr value);
    lock = (fun id -> lock t id);
    unlock = (fun id -> unlock t id);
    barrier = (fun () -> barrier t);
    compute = (fun ops -> compute t ops);
    idle = (fun ns -> idle t ns);
    touch_private = (fun n -> touch_private t n);
  }
