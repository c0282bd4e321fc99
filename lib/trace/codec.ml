(* Compact binary trace log.

   Layout: a 5-byte header (magic "CVMT" + format version), the run
   metadata, then one record per event: a tag byte, the time *delta*
   since the previous event as a varint, and the tag-specific fields.
   Integers use zigzag LEB128 (times are monotone so deltas are small;
   zigzag keeps the odd negative — an ack's cumulative -1 — cheap).
   Floats (fault probabilities) are 8 fixed little-endian bytes.

   Format history:
   - v1: transport recorded as a bool plus the retry cap only; no
     interval-GC cadence. Decoding a v1 log synthesizes the missing
     fields from the frozen v1 defaults below.
   - v2: full transport config (RTO, backoff ceiling, retry cap, header
     and ack wire sizes) and the interval-GC cadence [m_gc_epochs], so a
     tuned-transport or GC-enabled recording replays under exactly the
     configuration that produced it.
   - v3: instrumentation-elision flag [m_elide]. Only the flag is
     stored, not the site set: the set is a pure function of the app's
     binary, so replay re-derives it and necessarily agrees with the
     recording build. Decoding an older log reads [m_elide = false].
   - v4: backend id [m_backend] ("lrc", "mesi", "dragon", ...) plus the
     cache geometry [m_cc_line_bytes]/[m_cc_sets]/[m_cc_ways] the
     snooping-bus backends need to reproduce a run, and the Bus event
     (tag 22). Older logs decode as backend "lrc" with the default
     geometry.
   - v5: [m_sim_jobs], a schedule marker. Logs recorded by the sharded
     engine, since removed, carry [Some 1]; every log written now
     carries [None], so the layout is unchanged. Replay rejects a log
     with the marker present (its event order is not the single loop's);
     log-only reading still accepts it. Older logs decode as [None]. *)

let magic = "CVMT"
let version = 5
let min_version = 1

type transport_meta = {
  tm_initial_rto_ns : int;
  tm_max_rto_ns : int;
  tm_max_retries : int;
  tm_header_bytes : int;
  tm_ack_bytes : int;
}

type meta = {
  m_app : string;
  m_scale : string;
  m_nprocs : int;
  m_protocol : string;
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
  m_partitions : (int * int * int * int) list;  (* a, b, from_ns, until_ns *)
  m_transport : transport_meta option;
  m_watchdog_ns : int option;
  m_gc_epochs : int option;
  m_elide : bool;  (* elide checks at statically race-free sites (v3+) *)
  m_backend : string;  (* coherence backend id, "lrc" before v4 *)
  m_cc_line_bytes : int;  (* cache geometry for the bus backends (v4+) *)
  m_cc_sets : int;
  m_cc_ways : int;
  m_sim_jobs : int option;  (* removed sharded engine's schedule marker (v5+) *)
}

(* The transport defaults that were current while v1 was the format:
   v1 logs recorded only the retry cap, everything else was implicitly
   "the default". Frozen here — NOT read from Sim.Transport — so a later
   change to the live defaults can never silently alter what an old log
   replays as. *)
let v1_transport_defaults =
  {
    tm_initial_rto_ns = 1_000_000;
    tm_max_rto_ns = 16_000_000;
    tm_max_retries = 20;
    tm_header_bytes = 12;
    tm_ack_bytes = 32;
  }

(* --- primitive writers --- *)

let put_varint buf n =
  (* zigzag then LEB128 *)
  let u = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')
let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let put_opt buf put = function
  | None -> put_bool buf false
  | Some v ->
      put_bool buf true;
      put buf v

let put_list buf put xs =
  put_varint buf (List.length xs);
  List.iter (put buf) xs

let put_vc buf (vc : Proto.Vclock.t) =
  put_varint buf (Array.length vc);
  Array.iter (put_varint buf) vc

let put_iid buf (id : Proto.Interval.id) =
  put_varint buf id.Proto.Interval.proc;
  put_varint buf id.Proto.Interval.index

let put_kind buf (k : Proto.Race.access_kind) =
  Buffer.add_char buf (match k with Proto.Race.Read -> '\000' | Write -> '\001')

(* --- primitive readers --- *)

type cursor = { src : string; mutable pos : int }

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let byte c =
  if c.pos >= String.length c.src then fail "truncated log at byte %d" c.pos;
  let b = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec go shift acc =
    let b = byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let u = go 0 0 in
  (u lsr 1) lxor (-(u land 1))

let get_bool c = byte c <> 0

let get_string c =
  let len = get_varint c in
  if len < 0 || c.pos + len > String.length c.src then
    fail "bad string length %d at byte %d" len c.pos;
  let s = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  s

let get_float c =
  if c.pos + 8 > String.length c.src then fail "truncated float at byte %d" c.pos;
  let bits = String.get_int64_le c.src c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let get_opt c get = if get_bool c then Some (get c) else None

let get_list c get =
  let n = get_varint c in
  if n < 0 then fail "negative list length at byte %d" c.pos;
  List.init n (fun _ -> get c)

let get_vc c : Proto.Vclock.t =
  let n = get_varint c in
  if n < 0 then fail "negative vclock length at byte %d" c.pos;
  Array.init n (fun _ -> get_varint c)

let get_iid c : Proto.Interval.id =
  let proc = get_varint c in
  let index = get_varint c in
  { Proto.Interval.proc; index }

let get_kind c : Proto.Race.access_kind =
  match byte c with
  | 0 -> Proto.Race.Read
  | 1 -> Proto.Race.Write
  | k -> fail "bad access kind %d at byte %d" k c.pos

(* --- metadata --- *)

let put_transport buf tm =
  put_varint buf tm.tm_initial_rto_ns;
  put_varint buf tm.tm_max_rto_ns;
  put_varint buf tm.tm_max_retries;
  put_varint buf tm.tm_header_bytes;
  put_varint buf tm.tm_ack_bytes

let get_transport c =
  let tm_initial_rto_ns = get_varint c in
  let tm_max_rto_ns = get_varint c in
  let tm_max_retries = get_varint c in
  let tm_header_bytes = get_varint c in
  let tm_ack_bytes = get_varint c in
  { tm_initial_rto_ns; tm_max_rto_ns; tm_max_retries; tm_header_bytes; tm_ack_bytes }

(* always writes the current (v4) layout *)
let put_meta buf m =
  put_string buf m.m_app;
  put_string buf m.m_scale;
  put_varint buf m.m_nprocs;
  put_string buf m.m_protocol;
  put_bool buf m.m_detect;
  put_bool buf m.m_first_race_only;
  put_bool buf m.m_stores_from_diffs;
  put_varint buf m.m_seed;
  put_opt buf put_varint m.m_net_seed;
  put_float buf m.m_drop;
  put_float buf m.m_dup;
  put_float buf m.m_reorder;
  put_varint buf m.m_reorder_window_ns;
  put_float buf m.m_spike;
  put_varint buf m.m_spike_ns;
  put_list buf
    (fun buf (a, b, from_ns, until_ns) ->
      put_varint buf a;
      put_varint buf b;
      put_varint buf from_ns;
      put_varint buf until_ns)
    m.m_partitions;
  put_opt buf put_transport m.m_transport;
  put_opt buf put_varint m.m_watchdog_ns;
  put_opt buf put_varint m.m_gc_epochs;
  put_bool buf m.m_elide;
  put_string buf m.m_backend;
  put_varint buf m.m_cc_line_bytes;
  put_varint buf m.m_cc_sets;
  put_varint buf m.m_cc_ways;
  put_opt buf put_varint m.m_sim_jobs

let get_meta ~version c =
  let m_app = get_string c in
  let m_scale = get_string c in
  let m_nprocs = get_varint c in
  let m_protocol = get_string c in
  let m_detect = get_bool c in
  let m_first_race_only = get_bool c in
  let m_stores_from_diffs = get_bool c in
  let m_seed = get_varint c in
  let m_net_seed = get_opt c get_varint in
  let m_drop = get_float c in
  let m_dup = get_float c in
  let m_reorder = get_float c in
  let m_reorder_window_ns = get_varint c in
  let m_spike = get_float c in
  let m_spike_ns = get_varint c in
  let m_partitions =
    get_list c (fun c ->
        let a = get_varint c in
        let b = get_varint c in
        let from_ns = get_varint c in
        let until_ns = get_varint c in
        (a, b, from_ns, until_ns))
  in
  let m_transport, m_watchdog_ns, m_gc_epochs =
    if version = 1 then begin
      (* v1 tail: transport flag + retry cap + watchdog; no GC cadence *)
      let transport_on = get_bool c in
      let max_retries = get_opt c get_varint in
      let watchdog = get_opt c get_varint in
      let transport =
        if not transport_on then None
        else
          Some
            (match max_retries with
            | Some tm_max_retries -> { v1_transport_defaults with tm_max_retries }
            | None -> v1_transport_defaults)
      in
      (transport, watchdog, None)
    end
    else
      let transport = get_opt c get_transport in
      let watchdog = get_opt c get_varint in
      let gc_epochs = get_opt c get_varint in
      (transport, watchdog, gc_epochs)
  in
  let m_elide = if version >= 3 then get_bool c else false in
  let m_backend, m_cc_line_bytes, m_cc_sets, m_cc_ways =
    if version >= 4 then
      let backend = get_string c in
      let line_bytes = get_varint c in
      let sets = get_varint c in
      let ways = get_varint c in
      (backend, line_bytes, sets, ways)
    else ("lrc", 64, 64, 2)
  in
  let m_sim_jobs = if version >= 5 then get_opt c get_varint else None in
  {
    m_app;
    m_scale;
    m_nprocs;
    m_protocol;
    m_detect;
    m_first_race_only;
    m_stores_from_diffs;
    m_seed;
    m_net_seed;
    m_drop;
    m_dup;
    m_reorder;
    m_reorder_window_ns;
    m_spike;
    m_spike_ns;
    m_partitions;
    m_transport;
    m_watchdog_ns;
    m_gc_epochs;
    m_elide;
    m_backend;
    m_cc_line_bytes;
    m_cc_sets;
    m_cc_ways;
    m_sim_jobs;
  }

(* --- events --- *)

let put_event buf (e : Event.t) =
  let tag n = Buffer.add_char buf (Char.chr n) in
  match e with
  | Event.Msg_send { src; dst; kind; bytes } ->
      tag 0;
      put_varint buf src;
      put_varint buf dst;
      put_string buf kind;
      put_varint buf bytes
  | Event.Msg_deliver { src; dst; kind; bytes } ->
      tag 1;
      put_varint buf src;
      put_varint buf dst;
      put_string buf kind;
      put_varint buf bytes
  | Event.Fault { src; dst; outcome } ->
      tag 2;
      put_varint buf src;
      put_varint buf dst;
      (match outcome with
      | Event.Passed { copies; extra_delay_ns } ->
          Buffer.add_char buf '\000';
          put_varint buf copies;
          put_varint buf extra_delay_ns
      | Event.Dropped -> Buffer.add_char buf '\001'
      | Event.Blackholed -> Buffer.add_char buf '\002')
  | Event.Partition { a; b; up } ->
      tag 3;
      put_varint buf a;
      put_varint buf b;
      put_bool buf up
  | Event.Retransmit { src; dst; seq } ->
      tag 4;
      put_varint buf src;
      put_varint buf dst;
      put_varint buf seq
  | Event.Ack { src; dst; cum } ->
      tag 5;
      put_varint buf src;
      put_varint buf dst;
      put_varint buf cum
  | Event.Link_failure { src; dst } ->
      tag 6;
      put_varint buf src;
      put_varint buf dst
  | Event.Proc_block { proc; label } ->
      tag 7;
      put_varint buf proc;
      put_string buf label
  | Event.Proc_resume { proc } ->
      tag 8;
      put_varint buf proc
  | Event.Proc_finish { proc } ->
      tag 9;
      put_varint buf proc
  | Event.Page_fault { proc; page; kind } ->
      tag 10;
      put_varint buf proc;
      put_varint buf page;
      put_kind buf kind
  | Event.Diff_fetch { proc; page; count } ->
      tag 11;
      put_varint buf proc;
      put_varint buf page;
      put_varint buf count
  | Event.Diff_apply { proc; page; words } ->
      tag 12;
      put_varint buf proc;
      put_varint buf page;
      put_varint buf words
  | Event.Lock_acquire { proc; lock; vc } ->
      tag 13;
      put_varint buf proc;
      put_varint buf lock;
      put_vc buf vc
  | Event.Lock_release { proc; lock; vc } ->
      tag 14;
      put_varint buf proc;
      put_varint buf lock;
      put_vc buf vc
  | Event.Barrier_enter { proc; epoch } ->
      tag 15;
      put_varint buf proc;
      put_varint buf epoch
  | Event.Barrier_leave { proc; epoch; vc } ->
      tag 16;
      put_varint buf proc;
      put_varint buf epoch;
      put_vc buf vc
  | Event.Interval_open { proc; index; epoch } ->
      tag 17;
      put_varint buf proc;
      put_varint buf index;
      put_varint buf epoch
  | Event.Interval_close { proc; index; epoch; write_pages; read_pages } ->
      tag 18;
      put_varint buf proc;
      put_varint buf index;
      put_varint buf epoch;
      put_list buf put_varint write_pages;
      put_list buf put_varint read_pages
  | Event.Check_entry { a; b; pages } ->
      tag 19;
      put_iid buf a;
      put_iid buf b;
      put_list buf put_varint pages
  | Event.Race r ->
      tag 20;
      put_varint buf r.Proto.Race.addr;
      put_varint buf r.Proto.Race.page;
      put_varint buf r.Proto.Race.word;
      let fid, fk = r.Proto.Race.first in
      put_iid buf fid;
      put_kind buf fk;
      let sid, sk = r.Proto.Race.second in
      put_iid buf sid;
      put_kind buf sk;
      put_varint buf r.Proto.Race.epoch
  | Event.Run_end { checksum; sim_time_ns; races } ->
      tag 21;
      put_varint buf checksum;
      put_varint buf sim_time_ns;
      put_varint buf races
  | Event.Bus { proc; kind; line } ->
      tag 22;
      put_varint buf proc;
      Buffer.add_char buf
        (match kind with
        | Event.Bus_rd -> '\000'
        | Event.Bus_rdx -> '\001'
        | Event.Bus_upgr -> '\002'
        | Event.Bus_upd -> '\003'
        | Event.Bus_wb -> '\004'
        | Event.Bus_sync -> '\005');
      put_varint buf line

let get_event c : Event.t =
  match byte c with
  | 0 ->
      let src = get_varint c in
      let dst = get_varint c in
      let kind = get_string c in
      let bytes = get_varint c in
      Event.Msg_send { src; dst; kind; bytes }
  | 1 ->
      let src = get_varint c in
      let dst = get_varint c in
      let kind = get_string c in
      let bytes = get_varint c in
      Event.Msg_deliver { src; dst; kind; bytes }
  | 2 ->
      let src = get_varint c in
      let dst = get_varint c in
      let outcome =
        match byte c with
        | 0 ->
            let copies = get_varint c in
            let extra_delay_ns = get_varint c in
            Event.Passed { copies; extra_delay_ns }
        | 1 -> Event.Dropped
        | 2 -> Event.Blackholed
        | k -> fail "bad fault outcome %d at byte %d" k c.pos
      in
      Event.Fault { src; dst; outcome }
  | 3 ->
      let a = get_varint c in
      let b = get_varint c in
      let up = get_bool c in
      Event.Partition { a; b; up }
  | 4 ->
      let src = get_varint c in
      let dst = get_varint c in
      let seq = get_varint c in
      Event.Retransmit { src; dst; seq }
  | 5 ->
      let src = get_varint c in
      let dst = get_varint c in
      let cum = get_varint c in
      Event.Ack { src; dst; cum }
  | 6 ->
      let src = get_varint c in
      let dst = get_varint c in
      Event.Link_failure { src; dst }
  | 7 ->
      let proc = get_varint c in
      let label = get_string c in
      Event.Proc_block { proc; label }
  | 8 -> Event.Proc_resume { proc = get_varint c }
  | 9 -> Event.Proc_finish { proc = get_varint c }
  | 10 ->
      let proc = get_varint c in
      let page = get_varint c in
      let kind = get_kind c in
      Event.Page_fault { proc; page; kind }
  | 11 ->
      let proc = get_varint c in
      let page = get_varint c in
      let count = get_varint c in
      Event.Diff_fetch { proc; page; count }
  | 12 ->
      let proc = get_varint c in
      let page = get_varint c in
      let words = get_varint c in
      Event.Diff_apply { proc; page; words }
  | 13 ->
      let proc = get_varint c in
      let lock = get_varint c in
      let vc = get_vc c in
      Event.Lock_acquire { proc; lock; vc }
  | 14 ->
      let proc = get_varint c in
      let lock = get_varint c in
      let vc = get_vc c in
      Event.Lock_release { proc; lock; vc }
  | 15 ->
      let proc = get_varint c in
      let epoch = get_varint c in
      Event.Barrier_enter { proc; epoch }
  | 16 ->
      let proc = get_varint c in
      let epoch = get_varint c in
      let vc = get_vc c in
      Event.Barrier_leave { proc; epoch; vc }
  | 17 ->
      let proc = get_varint c in
      let index = get_varint c in
      let epoch = get_varint c in
      Event.Interval_open { proc; index; epoch }
  | 18 ->
      let proc = get_varint c in
      let index = get_varint c in
      let epoch = get_varint c in
      let write_pages = get_list c get_varint in
      let read_pages = get_list c get_varint in
      Event.Interval_close { proc; index; epoch; write_pages; read_pages }
  | 19 ->
      let a = get_iid c in
      let b = get_iid c in
      let pages = get_list c get_varint in
      Event.Check_entry { a; b; pages }
  | 20 ->
      let addr = get_varint c in
      let page = get_varint c in
      let word = get_varint c in
      let fid = get_iid c in
      let fk = get_kind c in
      let sid = get_iid c in
      let sk = get_kind c in
      let epoch = get_varint c in
      Event.Race
        { Proto.Race.addr; page; word; first = (fid, fk); second = (sid, sk); epoch }
  | 21 ->
      let checksum = get_varint c in
      let sim_time_ns = get_varint c in
      let races = get_varint c in
      Event.Run_end { checksum; sim_time_ns; races }
  | 22 ->
      let proc = get_varint c in
      let kind =
        match byte c with
        | 0 -> Event.Bus_rd
        | 1 -> Event.Bus_rdx
        | 2 -> Event.Bus_upgr
        | 3 -> Event.Bus_upd
        | 4 -> Event.Bus_wb
        | 5 -> Event.Bus_sync
        | k -> fail "bad bus kind %d at byte %d" k c.pos
      in
      let line = get_varint c in
      Event.Bus { proc; kind; line }
  | k -> fail "unknown event tag %d at byte %d" k (c.pos - 1)

(* --- incremental encoder --- *)

type encoder = { buf : Buffer.t; mutable last_time : int; mutable count : int }

let encoder meta =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_meta buf meta;
  { buf; last_time = 0; count = 0 }

let add enc ~time event =
  put_varint enc.buf (time - enc.last_time);
  enc.last_time <- time;
  put_event enc.buf event;
  enc.count <- enc.count + 1

let count enc = enc.count
let contents enc = Buffer.contents enc.buf

let encode meta events =
  let enc = encoder meta in
  Array.iter (fun (time, event) -> add enc ~time event) events;
  contents enc

(* --- decoder --- *)

type decoded = { meta : meta; events : (int * Event.t) array }

let decode s =
  if String.length s < 5 || String.sub s 0 4 <> magic then
    raise (Corrupt "not a CVM trace log (bad magic)");
  let log_version = Char.code s.[4] in
  if log_version > version then
    fail
      "trace log format v%d is newer than this build supports (max v%d) — replay it with \
       the build that recorded it, or re-record"
      log_version version;
  if log_version < min_version then
    fail
      "trace log format v%d is older than the minimum this build supports (v%d) — replay \
       it with the build that recorded it"
      log_version min_version;
  let c = { src = s; pos = 5 } in
  let meta = get_meta ~version:log_version c in
  let events = ref [] in
  let last_time = ref 0 in
  while c.pos < String.length s do
    let delta = get_varint c in
    let time = !last_time + delta in
    last_time := time;
    let event = get_event c in
    events := (time, event) :: !events
  done;
  { meta; events = Array.of_list (List.rev !events) }

let event_bytes event =
  let buf = Buffer.create 32 in
  put_event buf event;
  Buffer.length buf
