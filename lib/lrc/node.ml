(* Per-processor DSM state and protocol engine — the CVM analogue.

   Each simulated processor owns one [t]. Its application coroutine calls
   the access/synchronization operations through {!view}; protocol messages from
   other processors are serviced by [handle_message], which the network
   invokes at delivery time (CVM's SIGIO handler). Handlers never block;
   replies the application waits for are parked in [replies] and the
   application coroutine is woken.

   Processor 0 additionally plays three central roles, as in the paper's
   prototype: lock manager, page manager (single-writer ownership
   directory), and barrier master (where the race-detection algorithm
   runs).

   The detector's per-processor half — time debt, access notes and
   bitmaps, interval open and snapshot, the race epilogue — is the
   {!Coherence.Proc} shared with the bus machine; this module keeps what
   is LRC's own: pages, faults, diffs, messages, the interval log, site
   retention and the barrier's bitmap request/reply round.

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

module Proc = Coherence.Proc

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
  collected : Racedetect.Detector.bitmap_store;
  mutable master_vc : Proto.Vclock.t;  (* merged arrival clocks *)
  mutable check_bytes : int;  (* wire size of the check list *)
  mutable processing_epoch : int;  (* epoch under analysis *)
}

type t = {
  env : Proc.env;
  net : Message.t Sim.Net.t;
  proc : Proc.t;  (* vector clock, intervals, access bitmaps, time debt *)
  id : int;
  nprocs : int;
  log : (Proto.Interval.id, Proto.Interval.t) Hashtbl.t;
  applied : (Proto.Interval.id, unit) Hashtbl.t;  (* notices already applied *)
  max_seen : int array;  (* per-proc highest interval index present in [log] *)
  pages : page_entry array;
  mutable rw_pages : int list;  (* pages currently P_write (for downgrade) *)
  locks : (int, lock_local) Hashtbl.t;
  bitmap_store : Racedetect.Detector.bitmap_store;  (* own closed intervals' bitmaps *)
  (* diffs tagged with the creating interval's epoch, for interval GC *)
  diff_store : (Proto.Interval.id * int, Mem.Diff.t * int) Hashtbl.t;
  mutable gc_drop_bound : int;
      (* two-phase diff GC: epoch bound recorded at the last validate
         barrier, executed (diffs with creation epoch < bound dropped) at
         the next one; -1 when no drop is scheduled *)
  (* section 6.1 single-run site retention: (page, word, kind) -> site for
     the current interval, snapshotted per closed interval and KEPT for
     the whole run — the storage cost the paper calls prohibitive *)
  cur_sites : (int * int * Proto.Race.access_kind, string) Hashtbl.t;
  site_store : (Proto.Interval.id * int * int * Proto.Race.access_kind, string) Hashtbl.t;
  mutable replies : Message.t list;  (* replies awaited by the app coroutine *)
  (* central services, only populated at processor 0 *)
  page_mgrs : page_mgr array;
  lock_mgrs : (int, lock_mgr) Hashtbl.t;
  barrier : barrier_master;
  home_pages : (int, home_page) Hashtbl.t;  (* pages homed at this node *)
}

let words_per_page t = Mem.Geometry.words_per_page t.env.geometry

(* ------------------------------------------------------------------ *)
(* Interval lifecycle                                                  *)

let detect_on t = t.env.cfg.Config.detect

let send t ~dst msg =
  let with_read_notices = detect_on t in
  (match msg with
  | Message.Lock_grant { intervals; _ }
  | Message.Barrier_arrive { intervals; _ }
  | Message.Barrier_release { intervals; _ } ->
      if with_read_notices then begin
        let extra = Message.read_notice_bytes intervals in
        t.env.stats.Sim.Stats.read_notice_bytes <-
          t.env.stats.Sim.Stats.read_notice_bytes + extra;
        Sim.Stats.charge t.env.stats Sim.Stats.Cvm_mods
          (t.env.cost.Sim.Cost.byte_ns *. float_of_int extra)
      end
  | Message.Bitmap_req _ | Message.Bitmap_reply _ ->
      t.env.stats.Sim.Stats.bitmap_round_bytes <-
        t.env.stats.Sim.Stats.bitmap_round_bytes + Message.size ~with_read_notices msg
  | _ -> ());
  Sim.Net.send t.net ~src:t.id ~dst msg

(* Deferred send used by handlers that model serialized master-side work:
   the message leaves after the master has "spent" the computation time. *)
let send_after t ~delay ~dst msg =
  if delay <= 0 then send t ~dst msg
  else Sim.Engine.schedule_after t.env.engine ~delay (fun () -> send t ~dst msg)

let make_diffs t interval =
  (* Multi-writer: summarize this interval's writes as word-level diffs.
     With [stores_from_diffs] (stores not instrumented), the diffs also
     provide the write bitmaps (section 6.5's optimization). *)
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
          Hashtbl.replace t.diff_store (id, page) (diff, interval.Proto.Interval.epoch);
          t.env.stats.Sim.Stats.diffs_created <- t.env.stats.Sim.Stats.diffs_created + 1;
          t.env.stats.Sim.Stats.diff_words <-
            t.env.stats.Sim.Stats.diff_words + Mem.Diff.word_count diff;
          Proc.charge_local t.proc
            (t.env.cost.Sim.Cost.diff_word_ns *. float_of_int (words_per_page t));
          if detect_on t && not t.env.check_stores then begin
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
          t.env.stats.Sim.Stats.diffs_created <- t.env.stats.Sim.Stats.diffs_created + 1;
          t.env.stats.Sim.Stats.diff_words <-
            t.env.stats.Sim.Stats.diff_words + Mem.Diff.word_count diff;
          Proc.charge_local t.proc (t.env.cost.Sim.Cost.diff_word_ns *. float_of_int (words_per_page t));
          send t ~dst:(home_of t page)
            (Message.Diff_flush { page; diffs = [ (id, diff) ]; vc = Proto.Vclock.copy t.proc.vc }))
    interval.Proto.Interval.write_pages

let close_interval t =
  let interval = t.proc.cur in
  interval.Proto.Interval.closed <- true;
  (* bitmaps first: under [stores_from_diffs] the diff pass merges the
     write bitmaps it derives into the entries the snapshot created. The
     write notices are already in place: every write faulted. *)
  if detect_on t then begin
    Proc.snapshot_bitmaps t.proc t.bitmap_store interval;
    if t.env.cfg.Config.retain_sites then begin
      let id = Proto.Interval.id interval in
      Hashtbl.iter
        (fun (page, word, kind) site ->
          t.env.stats.Sim.Stats.site_entries <- t.env.stats.Sim.Stats.site_entries + 1;
          Hashtbl.replace t.site_store (id, page, word, kind) site)
        t.cur_sites;
      Hashtbl.reset t.cur_sites
    end
  end;
  if t.env.cfg.Config.protocol = Config.Multi_writer then make_diffs t interval
  else if t.env.cfg.Config.protocol = Config.Home_based then flush_diffs t interval
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
  Proc.interval_closed t.proc interval

let log_own_interval t =
  let interval = t.proc.cur in
  Hashtbl.replace t.log (Proto.Interval.id interval) interval;
  t.max_seen.(t.id) <- Proto.Interval.index interval

let open_interval t =
  Proc.open_interval t.proc;
  log_own_interval t

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
        match t.env.cfg.Config.protocol with
        | Config.Single_writer ->
            if not entry.owner then begin
              entry.state <- P_invalid
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
  Sim.Engine.wake t.env.engine t.id

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
  Proc.flush_time t.proc;
  Sim.Engine.advance t.env.cost.Sim.Cost.fault_ns

let install_page t page bytes =
  let entry = t.pages.(page) in
  Bytes.blit bytes 0 (Mem.Page.raw entry.data) 0 (Bytes.length bytes);
  t.env.stats.Sim.Stats.pages_fetched <- t.env.stats.Sim.Stats.pages_fetched + 1

let sw_read_fault t page =
  t.env.stats.Sim.Stats.read_faults <- t.env.stats.Sim.Stats.read_faults + 1;
  Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
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
  t.env.stats.Sim.Stats.write_faults <- t.env.stats.Sim.Stats.write_faults + 1;
  Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  if entry.owner then begin
    (* local fault from the interval-start downgrade: just record the write
       notice; no messages move. The fault handling yields the processor,
       and an ownership transfer can be serviced during the yield — if it
       was, fall back to the remote path, or the write would land in a
       stale copy whose content never travels with the page. *)
    Proc.flush_time t.proc;
    Sim.Engine.advance (t.env.cost.Sim.Cost.fault_ns / 10);
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
  Proto.Interval.add_write_page t.proc.cur page

let mw_apply_pending t page =
  let entry = t.pages.(page) in
  (match List.sort_uniq Proto.Interval.compare_ids entry.pending with
  | [] -> ()
  | pending ->
    t.env.stats.Sim.Stats.read_faults <- t.env.stats.Sim.Stats.read_faults + 1;
    Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
    fault_prologue t;
    (* group the needed diffs by creating processor; one request each *)
    let by_proc = Hashtbl.create 4 in
    List.iter
      (fun (id : Proto.Interval.id) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_proc id.proc) in
        Hashtbl.replace by_proc id.proc (id :: prev))
      pending;
    let expected = Hashtbl.length by_proc in
    Proc.emit_sink t.proc (Trace.Event.Diff_fetch { proc = t.id; page; count = expected });
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
      (fun (_, diff) ->
        Mem.Diff.apply diff entry.data;
        Proc.emit_sink t.proc
          (Trace.Event.Diff_apply
             { proc = t.id; page; words = Mem.Diff.word_count diff }))
      ordered;
    Sim.Engine.advance_f
      (t.env.cost.Sim.Cost.diff_word_ns
      *. float_of_int (List.fold_left (fun acc (_, d) -> acc + Mem.Diff.word_count d) 0 ordered));
    entry.pending <- []);
  entry.state <- P_read

let mw_write_fault t page =
  let entry = t.pages.(page) in
  if entry.state = P_invalid then mw_apply_pending t page;
  t.env.stats.Sim.Stats.write_faults <- t.env.stats.Sim.Stats.write_faults + 1;
  Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  Proc.flush_time t.proc;
  Sim.Engine.advance (t.env.cost.Sim.Cost.fault_ns / 10);
  entry.twin <- Some (Mem.Page.copy entry.data);
  Proc.charge_local t.proc
    (t.env.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  entry.state <- P_write;
  Proto.Interval.add_write_page t.proc.cur page

(* Home-based LRC faults: fetch the whole page from its home, gated on
   the version knowledge accumulated from write notices. *)

let hb_read_fault t page =
  let entry = t.pages.(page) in
  t.env.stats.Sim.Stats.read_faults <- t.env.stats.Sim.Stats.read_faults + 1;
  Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Read });
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
  t.env.stats.Sim.Stats.write_faults <- t.env.stats.Sim.Stats.write_faults + 1;
  Proc.emit_sink t.proc (Trace.Event.Page_fault { proc = t.id; page; kind = Proto.Race.Write });
  Proc.flush_time t.proc;
  Sim.Engine.advance (t.env.cost.Sim.Cost.fault_ns / 10);
  entry.twin <- Some (Mem.Page.copy entry.data);
  Proc.charge_local t.proc (t.env.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  entry.state <- P_write;
  Proto.Interval.add_write_page t.proc.cur page

(* ------------------------------------------------------------------ *)
(* Shared-memory access operations                                     *)

(* For the caching protocols: resolve any fault so [entry.data] holds a
   coherent copy the access may touch. *)
let ensure_readable t page entry =
  match t.env.cfg.Config.protocol with
  | Config.Single_writer -> (
      match entry.state with P_invalid -> sw_read_fault t page | P_read | P_write -> ())
  | Config.Multi_writer -> (
      match entry.state with P_invalid -> mw_apply_pending t page | P_read | P_write -> ())
  | Config.Home_based -> (
      match entry.state with P_invalid -> hb_read_fault t page | P_read | P_write -> ())
  | Config.Seq_consistent -> ()

let ensure_writable t page entry =
  match t.env.cfg.Config.protocol with
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
    Proc.flush_time t.proc;
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
    Proto.Interval.add_write_page t.proc.cur page
  end
  else begin
    Proc.flush_time t.proc;
    send t ~dst:0 (Message.Sc_write_req { addr; value; requester = t.id });
    let _ack =
      await_reply t ~label:"sc write" (function
        | Message.Sc_write_ack { addr = a } -> a = addr
        | _ -> false)
    in
    Proto.Interval.add_write_page t.proc.cur page
  end

(* The detector's half of every access (see {!Proc.read_note}), plus the
   site retention section 6.1 prices out; returns the page. *)
let[@inline] access t ~site addr kind =
  let p = t.proc in
  Proc.check_addr p addr;
  let page = Proc.page_of p addr in
  let word = Proc.word_of p addr in
  let checked =
    match kind with
    | Proto.Race.Read -> Proc.read_note p ~site addr page word
    | Proto.Race.Write -> Proc.write_note p ~site addr page word
  in
  if checked && t.env.cfg.Config.retain_sites then begin
    Proc.charge_category p Sim.Stats.Access_check 60.0;
    let key = (page, word, kind) in
    if not (Hashtbl.mem t.cur_sites key) then Hashtbl.replace t.cur_sites key site
  end;
  page

let read_word t ?(site = "?") addr =
  let page = access t ~site addr Proto.Race.Read in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_read t entry word addr
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_int64 entry.data word

let read_word_int t ?(site = "?") addr =
  let page = access t ~site addr Proto.Race.Read in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> Int64.to_int (sc_read t entry word addr)
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_int entry.data word

let read_word_float t ?(site = "?") addr =
  let page = access t ~site addr Proto.Race.Read in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> Int64.float_of_bits (sc_read t entry word addr)
  | _ ->
      ensure_readable t page entry;
      Mem.Page.get_float entry.data word

let write_word t ?(site = "?") addr value =
  let page = access t ~site addr Proto.Race.Write in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr value
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_int64 entry.data word value

let write_word_int t ?(site = "?") addr value =
  let page = access t ~site addr Proto.Race.Write in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr (Int64.of_int value)
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_int entry.data word value

let write_word_float t ?(site = "?") addr value =
  let page = access t ~site addr Proto.Race.Write in
  let entry = Array.unsafe_get t.pages page in
  let word = Proc.word_of t.proc addr in
  match t.env.cfg.Config.protocol with
  | Config.Seq_consistent -> sc_write t entry page word addr (Int64.bits_of_float value)
  | _ ->
      ensure_writable t page entry;
      Mem.Page.set_float entry.data word value

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
  (match t.env.recorder with
  | Some recorder -> Coherence.Sync_trace.record recorder ~lock ~grantee:requester
  | None -> ());
  send t ~dst:requester
    (Message.Lock_grant { lock; granter_vc = Proto.Vclock.copy upto; intervals })

let lock t lock_id =
  Proc.flush_time t.proc;
  t.env.stats.Sim.Stats.lock_acquires <- t.env.stats.Sim.Stats.lock_acquires + 1;
  let l = lock_state t lock_id in
  if l.held then invalid_arg "Node.lock: lock already held (not reentrant)";
  l.expecting <- true;
  send t ~dst:0
    (Message.Lock_req { lock = lock_id; requester = t.id; vc = Proto.Vclock.copy t.proc.vc });
  let reply =
    await_reply t ~label:(Printf.sprintf "grant of lock %d" lock_id) (function
      | Message.Lock_grant { lock; _ } -> lock = lock_id
      | _ -> false)
  in
  match reply with
  | Message.Lock_grant { granter_vc; intervals; _ } ->
      close_interval t;
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.proc.vc granter_vc;
      open_interval t;
      l.expecting <- false;
      l.pending_seq <- None;
      l.held <- true;
      Proc.emit_trace t.proc (Racedetect.Oracle.Acquire lock_id);
      if Proc.tracing t.proc then
        Proc.emit_sink t.proc
          (Trace.Event.Lock_acquire
             { proc = t.id; lock = lock_id; vc = Proto.Vclock.copy t.proc.vc })
  | _ -> assert false

let unlock t lock_id =
  Proc.flush_time t.proc;
  let l = lock_state t lock_id in
  if not l.held then invalid_arg "Node.unlock: lock not held";
  close_interval t;
  l.release_vc <- Some (Proto.Vclock.copy t.proc.vc);
  open_interval t;
  l.held <- false;
  Proc.emit_trace t.proc (Racedetect.Oracle.Release lock_id);
  if Proc.tracing t.proc then
    Proc.emit_sink t.proc
      (Trace.Event.Lock_release
         { proc = t.id; lock = lock_id; vc = Proto.Vclock.copy t.proc.vc });
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
      let delay = t.env.cost.Sim.Cost.lock_manager_ns in
      send_after t ~delay ~dst:requester (Message.Lock_ack { lock; seq });
      send_after t ~delay ~dst:target (Message.Lock_fwd { lock; requester; vc; seq })
  | _ -> assert false

let rec drain_parked_requests t m ~lock =
  (* Replay mode: release parked requests in the recorded grant order. *)
  match t.env.cfg.Config.replay with
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
      match t.env.cfg.Config.replay with
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
  Proc.report_races t.proc races;
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
  let stats = t.env.stats in
  let epoch_intervals =
    List.concat_map (fun (_, _, intervals) -> intervals) b.arrivals
    |> List.filter (fun iv -> iv.Proto.Interval.epoch = b.processing_epoch)
  in
  let intervals_ns, entries =
    Racedetect.Detector.charged_check_list ~cost:t.env.cost ~stats
      ?probe:(Proc.check_entry_probe t.proc) epoch_intervals
  in
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
    b.processing_epoch <- t.proc.epoch
  end;
  b.arrivals <- (from_, vc, intervals) :: b.arrivals;
  (* learn only: the master's page-level effects happen when it processes
     its own Barrier_release, like every other node *)
  List.iter (learn t) intervals;
  Proto.Vclock.merge_into ~dst:b.master_vc vc;
  if List.length b.arrivals = t.nprocs then
    if detect_on t then master_run_detection t
    else master_finish_barrier t ~delay:0 ~races:[]

let master_on_bitmap_reply t ~bitmaps =
  let b = t.barrier in
  List.iter
    (fun (item : Message.bitmap_item) ->
      Hashtbl.replace b.collected (item.interval, item.page)
        { Racedetect.Detector.reads = item.reads; writes = item.writes })
    bitmaps;
  b.expected_replies <- b.expected_replies - 1;
  if b.expected_replies = 0 then begin
    let bitmaps_ns, races =
      Racedetect.Detector.charged_races ~cost:t.env.cost ~stats:t.env.stats
        ~geometry:t.env.geometry ~epoch:b.processing_epoch
        ~source:(Racedetect.Detector.stored_pair t.env.geometry b.collected)
        b.pending_checks
    in
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
  let floor = t.proc.epoch - 1 in
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
  match t.env.cfg.Config.gc_epochs with
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
        t.env.stats.Sim.Stats.diffs_gced <-
          t.env.stats.Sim.Stats.diffs_gced + List.length doomed
      end;
      if t.proc.epoch mod k = 0 && t.env.cfg.Config.protocol = Config.Multi_writer then begin
        Array.iteri
          (fun page entry ->
            match entry.pending with [] -> () | _ -> mw_apply_pending t page)
          t.pages;
        t.gc_drop_bound <- t.proc.epoch
      end

let barrier t =
  Proc.flush_time t.proc;
  let entered_epoch = t.proc.epoch in
  Proc.emit_sink t.proc (Trace.Event.Barrier_enter { proc = t.id; epoch = entered_epoch });
  close_interval t;
  Proc.emit_trace t.proc Racedetect.Oracle.Barrier;
  let intervals = List.rev t.proc.my_closed in
  t.proc.my_closed <- [];
  send t ~dst:0
    (Message.Barrier_arrive { from_ = t.id; vc = Proto.Vclock.copy t.proc.vc; intervals });
  open_interval t;
  let reply =
    await_reply t ~label:"barrier release" (function
      | Message.Barrier_release _ -> true
      | _ -> false)
  in
  match reply with
  | Message.Barrier_release { master_vc; intervals; _ } ->
      close_interval t;
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.proc.vc master_vc;
      t.proc.epoch <- t.proc.epoch + 1;
      open_interval t;
      if Proc.tracing t.proc then
        Proc.emit_sink t.proc
          (Trace.Event.Barrier_leave
             { proc = t.id; epoch = entered_epoch; vc = Proto.Vclock.copy t.proc.vc });
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
  Proc.charge_local t.proc (t.env.cost.Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  send t ~dst:requester
    (Message.Copy_data { page; data = Bytes.copy (Mem.Page.raw entry.data) })

let on_own_fwd t ~page ~requester =
  let entry = t.pages.(page) in
  entry.owner <- false;
  if entry.state = P_write then entry.state <- P_read;
  send t ~dst:requester
    (Message.Own_data { page; data = Bytes.copy (Mem.Page.raw entry.data) })

(* ------------------------------------------------------------------ *)
(* Home-based LRC service (runs at each page's home)                   *)

let home_state t page =
  match Hashtbl.find_opt t.home_pages page with
  | Some home -> home
  | None ->
      let geometry = t.env.geometry in
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
      Proc.emit_sink t.proc
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
        let pair = Racedetect.Detector.stored_pair t.env.geometry t.bitmap_store interval ~page in
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
  let page = Mem.Geometry.page_of_addr t.env.geometry addr in
  let word = Mem.Geometry.word_in_page t.env.geometry addr in
  let value = Mem.Page.get_int64 t.pages.(page).data word in
  send t ~dst:requester (Message.Sc_read_reply { addr; value })

let on_sc_write t ~addr ~value ~requester =
  let page = Mem.Geometry.page_of_addr t.env.geometry addr in
  let word = Mem.Geometry.word_in_page t.env.geometry addr in
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

let retained_site t ~interval ~page ~word ~kind =
  Hashtbl.find_opt t.site_store (interval, page, word, kind)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create env net ~id ~nprocs =
  let geometry = env.Proc.geometry in
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
  let t =
    {
      env;
      net;
      proc = Proc.create env ~id ~nprocs;
      id;
      nprocs;
      log = Hashtbl.create 64;
      applied = Hashtbl.create 64;
      max_seen = Array.make nprocs 0;
      pages;
      rw_pages = [];
      locks = Hashtbl.create 8;
      bitmap_store = Hashtbl.create 64;
      diff_store = Hashtbl.create 64;
      gc_drop_bound = -1;
      cur_sites = Hashtbl.create 64;
      site_store = Hashtbl.create 256;
      replies = [];
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
          master_vc = Proto.Vclock.create nprocs;
          check_bytes = 0;
          processing_epoch = 0;
        };
    }
  in
  log_own_interval t;
  t

let proc t = t.proc

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
    geometry = t.env.geometry;
    malloc = Proc.malloc t.proc;
    read_word = (fun ?site addr -> read_word t ?site addr);
    write_word = (fun ?site addr value -> write_word t ?site addr value);
    read_word_int = (fun ?site addr -> read_word_int t ?site addr);
    write_word_int = (fun ?site addr value -> write_word_int t ?site addr value);
    read_word_float = (fun ?site addr -> read_word_float t ?site addr);
    write_word_float = (fun ?site addr value -> write_word_float t ?site addr value);
    lock = (fun id -> lock t id);
    unlock = (fun id -> unlock t id);
    barrier = (fun () -> barrier t);
    compute = Proc.compute t.proc;
    idle = Proc.idle t.proc;
    touch_private = Proc.touch_private t.proc;
  }
