(* Additional coverage: message sizing, statistics plumbing, interval
   accounting, sequential-consistency semantics, consolidation, float
   traffic, and the cost model. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_message_ns () =
  let cost = Sim.Cost.default in
  let base = Sim.Cost.message_ns cost ~bytes:0 in
  let big = Sim.Cost.message_ns cost ~bytes:4096 in
  check Alcotest.int "latency only at 0 bytes" cost.Sim.Cost.msg_latency_ns base;
  check Alcotest.bool "bandwidth term grows" true (big > base);
  check Alcotest.int "words per page" 512 (Sim.Cost.words_per_page cost)

(* ------------------------------------------------------------------ *)
(* Message sizes                                                       *)

let interval_with_notices ~reads ~writes =
  let vc = Proto.Vclock.create 4 in
  Proto.Vclock.set vc 0 1;
  let interval = Proto.Interval.create ~proc:0 ~index:1 ~vc ~epoch:0 in
  List.iter (Proto.Interval.add_read_page interval) reads;
  List.iter (Proto.Interval.add_write_page interval) writes;
  interval.Proto.Interval.closed <- true;
  interval

let test_message_sizes () =
  let vc = Proto.Vclock.create 4 in
  let small =
    Lrc.Message.size ~with_read_notices:true
      (Lrc.Message.Lock_req { lock = 1; requester = 2; vc })
  in
  check Alcotest.bool "positive" true (small > 0);
  let no_notices = interval_with_notices ~reads:[] ~writes:[ 1 ] in
  let notices = interval_with_notices ~reads:[ 2; 3; 4 ] ~writes:[ 1 ] in
  let grant intervals =
    Lrc.Message.size ~with_read_notices:true
      (Lrc.Message.Lock_grant { lock = 1; granter_vc = vc; intervals })
  in
  check Alcotest.int "read notices cost 4 bytes each" 12
    (grant [ notices ] - grant [ no_notices ]);
  (* with detection off, read notices do not ship at all *)
  let grant_off intervals =
    Lrc.Message.size ~with_read_notices:false
      (Lrc.Message.Lock_grant { lock = 1; granter_vc = vc; intervals })
  in
  check Alcotest.int "no read notices when detection is off" 0
    (grant_off [ notices ] - grant_off [ no_notices ]);
  check Alcotest.int "read_notice_bytes helper" 12
    (Lrc.Message.read_notice_bytes [ notices ])

let test_page_data_size () =
  let data = Bytes.create 4096 in
  let size =
    Lrc.Message.size ~with_read_notices:true (Lrc.Message.Copy_data { page = 0; data })
  in
  check Alcotest.bool "page payload dominates" true (size >= 4096)

(* ------------------------------------------------------------------ *)
(* Interval accounting: 2 intervals per processor per barrier           *)

let test_two_intervals_per_barrier () =
  let cluster = Lrc.Cluster.create ~nprocs:4 ~pages:2 () in
  let barriers = 6 in
  let body node =
    for _ = 1 to barriers do
      Coherence.Dsm.barrier node
    done
  in
  Lrc.Cluster.run cluster ~body;
  let stats = Lrc.Cluster.stats cluster in
  check Alcotest.int "barriers counted once" barriers stats.Sim.Stats.barriers;
  (* each barrier creates 2 intervals per processor (arrive + depart),
     plus the initial interval of each processor *)
  check Alcotest.int "interval count"
    (4 * ((2 * barriers) + 1))
    stats.Sim.Stats.intervals_created

let test_lock_creates_two_intervals () =
  let cluster = Lrc.Cluster.create ~nprocs:2 ~pages:2 () in
  let body node =
    Coherence.Dsm.barrier node;
    if Coherence.Dsm.pid node = 0 then Coherence.Dsm.with_lock node 3 (fun () -> ());
    Coherence.Dsm.barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let stats = Lrc.Cluster.stats cluster in
  (* 2 procs x (1 initial + 2x2 barrier) + 2 for the acquire/release *)
  check Alcotest.int "acquire and release each open an interval" 12
    stats.Sim.Stats.intervals_created

(* ------------------------------------------------------------------ *)
(* Sequential consistency: reads always see the latest write            *)

let test_sc_reads_latest () =
  let cfg = { Lrc.Config.default with protocol = Lrc.Config.Seq_consistent } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let seen = ref (-1) in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    if pid node = 0 then begin
      compute node 50_000.0;
      write_int node x 9
    end
    else begin
      compute node 5_000_000.0 (* well after p0's write *);
      seen := read_int node x
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check Alcotest.int "SC read sees the unsynchronized write" 9 !seen

(* ------------------------------------------------------------------ *)
(* Consolidation (section 6.3): detection without an application
   barrier                                                             *)

let test_consolidate_runs_detection () =
  let cfg = Testutil.detect_cfg in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    (* a lock-only program with a race; no barrier until consolidation *)
    with_lock node 1 (fun () -> ());
    if pid node = 0 then write_int node x 1;
    if pid node = 1 then ignore (read_int node x);
    consolidate node;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check Testutil.addr_list "consolidation found the race" [ x ]
    (Testutil.racy_addrs_of cluster)

(* ------------------------------------------------------------------ *)
(* Float traffic through the DSM                                       *)

let test_float_roundtrip_through_dsm () =
  let cluster = Lrc.Cluster.create ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 16 in
  let got = ref 0.0 in
  let body node =
    let open Coherence.Dsm in
    if pid node = 0 then begin
      write_float node x 3.14159265;
      write_float node (x + 8) (-0.0)
    end;
    barrier node;
    if pid node = 1 then got := read_float node x;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check (Alcotest.float 0.0) "exact float transfer" 3.14159265 !got

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)

let test_stats_charges () =
  let stats = Sim.Stats.create () in
  Sim.Stats.charge stats Sim.Stats.Proc_call 10.0;
  Sim.Stats.charge stats Sim.Stats.Proc_call 5.0;
  Sim.Stats.charge stats Sim.Stats.Bitmaps 2.5;
  check (Alcotest.float 0.0) "accumulates" 15.0 (Sim.Stats.charged stats Sim.Stats.Proc_call);
  check (Alcotest.float 0.0) "total" 17.5 (Sim.Stats.total_charged stats);
  check Alcotest.int "categories distinct" 5 (List.length Sim.Stats.all_categories)

let test_detect_changes_traffic_only_in_detect_runs () =
  let run detect =
    let cfg = { Lrc.Config.default with detect } in
    let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
    let x = Lrc.Cluster.alloc cluster 8 in
    let body node =
      let open Coherence.Dsm in
      barrier node;
      if pid node = 0 then write_int node x 1 else ignore (read_int node x);
      barrier node
    in
    Lrc.Cluster.run cluster ~body;
    Lrc.Cluster.stats cluster
  in
  let off = run false and on = run true in
  check Alcotest.int "no read-notice bytes when off" 0 off.Sim.Stats.read_notice_bytes;
  check Alcotest.bool "read notices ship when on" true (on.Sim.Stats.read_notice_bytes > 0);
  check Alcotest.int "no bitmap round when off" 0 off.Sim.Stats.bitmap_round_bytes;
  check Alcotest.bool "bitmap round when on" true (on.Sim.Stats.bitmap_round_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Sync_trace unit behaviour                                           *)

let test_sync_trace_cursor () =
  let recorder = Coherence.Sync_trace.new_recorder () in
  Coherence.Sync_trace.record recorder ~lock:1 ~grantee:2;
  Coherence.Sync_trace.record recorder ~lock:1 ~grantee:0;
  Coherence.Sync_trace.record recorder ~lock:9 ~grantee:1;
  let trace = Coherence.Sync_trace.of_recorder recorder in
  check Alcotest.int "total grants" 3 (Coherence.Sync_trace.total_grants trace);
  check (Alcotest.option Alcotest.int) "lock 1 first" (Some 2)
    (Coherence.Sync_trace.next_grantee trace ~lock:1);
  Coherence.Sync_trace.advance trace ~lock:1;
  check (Alcotest.option Alcotest.int) "lock 1 second" (Some 0)
    (Coherence.Sync_trace.next_grantee trace ~lock:1);
  Coherence.Sync_trace.advance trace ~lock:1;
  check (Alcotest.option Alcotest.int) "lock 1 exhausted" None
    (Coherence.Sync_trace.next_grantee trace ~lock:1);
  check (Alcotest.option Alcotest.int) "other locks independent" (Some 1)
    (Coherence.Sync_trace.next_grantee trace ~lock:9);
  Coherence.Sync_trace.reset trace;
  check (Alcotest.option Alcotest.int) "reset rewinds" (Some 2)
    (Coherence.Sync_trace.next_grantee trace ~lock:1)

(* ------------------------------------------------------------------ *)
(* Elided-site lookup                                                  *)

(* A fresh copy: equal to the literal, never physically the same. *)
let copy s = Bytes.to_string (Bytes.of_string s)

let test_elide_more_sites_than_slots () =
  let n = (3 * Coherence.Elide.slots) + 1 in
  let sites = List.init n (Printf.sprintf "site%d") in
  let elided = List.filteri (fun i _ -> i mod 3 = 0) sites in
  let set = Coherence.Elide.create (Some elided) in
  (* twice through, with the first strings seen and with copies: the
     identity cache fills up part way through the first pass *)
  for _ = 1 to 2 do
    List.iter
      (fun site ->
        let expect = List.mem site elided in
        check Alcotest.bool site expect (Coherence.Elide.mem set site);
        check Alcotest.bool (site ^ " copy") expect (Coherence.Elide.mem set (copy site)))
      sites
  done;
  check Alcotest.bool "unknown site" false (Coherence.Elide.mem set "elsewhere")

let test_elide_equal_not_identical () =
  let key = "sor:north" and other = "sor:west" in
  let set = Coherence.Elide.create (Some [ copy key ]) in
  check Alcotest.bool "literal" true (Coherence.Elide.mem set key);
  check Alcotest.bool "equal copy after the literal is cached" true
    (Coherence.Elide.mem set (copy key));
  check Alcotest.bool "non-member" false (Coherence.Elide.mem set other);
  check Alcotest.bool "non-member copy" false (Coherence.Elide.mem set (copy other));
  let off = Coherence.Elide.create None in
  check Alcotest.bool "elision off" false (Coherence.Elide.mem off key)

let test_elide_no_allocation () =
  let set = Coherence.Elide.create (Some [ "a"; "b" ]) in
  let sites = [| "a"; "b"; "c" |] in
  Array.iter (fun s -> ignore (Coherence.Elide.mem set s)) sites;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 30_000 do
    if Coherence.Elide.mem set (Array.unsafe_get sites (i mod 3)) then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "hits" 20_000 !hits;
  if words > 64.0 then Alcotest.failf "30k lookups allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Experiments helpers (small scale)                                   *)

let test_experiments_table2 () =
  let rows = Core.Experiments.table2 () in
  check Alcotest.int "four rows" 4 (List.length rows)

let test_driver_slowdown_sane () =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  let sd = Core.Driver.measure_slowdown ~app ~nprocs:4 () in
  check Alcotest.bool "instrumented at least as slow" true (sd.Core.Driver.factor >= 1.0);
  let percentages = Core.Driver.overhead_percentages sd in
  check Alcotest.int "five categories" 5 (List.length percentages);
  List.iter (fun (_, pct) -> if pct < 0.0 then Alcotest.fail "negative overhead") percentages

let test_timeline_rows () =
  let cfg = { Lrc.Config.default with record_trace = true } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    with_lock node 1 (fun () -> write_int node x (pid node));
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let rows = Core.Timeline.rows ~nprocs:2 (Lrc.Cluster.timed_trace cluster) in
  (* 2 barriers + acquire/release per proc = 8 sync rows, time-ordered *)
  check Alcotest.int "sync rows" 8 (List.length rows);
  let times = List.map (fun (r : Core.Timeline.entry) -> r.time_ns) rows in
  check Alcotest.bool "sorted by time" true (times = List.sort compare times);
  let write_rows =
    List.filter (fun (r : Core.Timeline.entry) -> Testutil.contains r.label "1w") rows
  in
  check Alcotest.int "each release summarizes the critical section" 2
    (List.length write_rows)

let test_report_printers_smoke () =
  let buffer = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buffer in
  Core.Report.table2 ppf (Core.Experiments.table2 ());
  Core.Report.figure5 ppf (Core.Experiments.figure5_both ());
  Format.pp_print_flush ppf ();
  check Alcotest.bool "output produced" true (Buffer.length buffer > 200)

let suite =
  [
    ( "extra:cost+messages",
      [
        Alcotest.test_case "cost model" `Quick test_cost_message_ns;
        Alcotest.test_case "message sizes" `Quick test_message_sizes;
        Alcotest.test_case "page payload" `Quick test_page_data_size;
      ] );
    ( "extra:intervals",
      [
        Alcotest.test_case "2 per proc per barrier" `Quick test_two_intervals_per_barrier;
        Alcotest.test_case "2 per lock round trip" `Quick test_lock_creates_two_intervals;
      ] );
    ( "extra:semantics",
      [
        Alcotest.test_case "SC reads latest" `Quick test_sc_reads_latest;
        Alcotest.test_case "consolidation detects" `Quick test_consolidate_runs_detection;
        Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip_through_dsm;
      ] );
    ( "extra:stats",
      [
        Alcotest.test_case "charges" `Quick test_stats_charges;
        Alcotest.test_case "detection traffic" `Quick
          test_detect_changes_traffic_only_in_detect_runs;
        Alcotest.test_case "sync trace cursor" `Quick test_sync_trace_cursor;
      ] );
    ( "extra:elide",
      [
        Alcotest.test_case "more sites than slots" `Quick test_elide_more_sites_than_slots;
        Alcotest.test_case "equal but not identical" `Quick test_elide_equal_not_identical;
        Alcotest.test_case "lookups allocate nothing" `Quick test_elide_no_allocation;
      ] );
    ( "extra:experiments",
      [
        Alcotest.test_case "table2 rows" `Quick test_experiments_table2;
        Alcotest.test_case "slowdown sane" `Quick test_driver_slowdown_sane;
        Alcotest.test_case "report printers" `Quick test_report_printers_smoke;
        Alcotest.test_case "timeline rows" `Quick test_timeline_rows;
      ] );
  ]
