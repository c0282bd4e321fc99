(* Tests for the detection algorithm (steps 2-5) as pure functions, and
   for the independent offline oracle. *)

let check = Alcotest.check

let nprocs = 3
let geometry = Mem.Geometry.create ~page_size:4096 ~word_size:8 ~pages:8 ()
let words = 512

let interval ~proc ~index ~seen =
  let vc = Proto.Vclock.create nprocs in
  List.iter (fun (p, i) -> Proto.Vclock.set vc p i) seen;
  Proto.Vclock.set vc proc index;
  Proto.Interval.create ~proc ~index ~vc ~epoch:0

let with_accesses interval ~reads ~writes =
  List.iter (fun (page, _) -> Proto.Interval.add_read_page interval page) reads;
  List.iter (fun (page, _) -> Proto.Interval.add_write_page interval page) writes;
  interval.Proto.Interval.closed <- true;
  interval

(* a bitmap source backed by an association list of (id, page) -> words *)
let source_of assoc (id : Proto.Interval.id) ~page =
  let find kind =
    match List.assoc_opt (id, page, kind) assoc with
    | Some ws ->
        let bitmap = Mem.Bitmap.create words in
        List.iter (Mem.Bitmap.set bitmap) ws;
        bitmap
    | None -> Mem.Bitmap.create words
  in
  { Racedetect.Detector.reads = find `R; writes = find `W }

(* ------------------------------------------------------------------ *)

let test_concurrent_pairs_barrier_epoch () =
  (* three barrier-style intervals, one per proc, mutually unsynchronized *)
  let intervals =
    List.init nprocs (fun proc -> interval ~proc ~index:2 ~seen:[])
  in
  let pairs = Racedetect.Detector.concurrent_pairs intervals in
  check Alcotest.int "all cross pairs concurrent" 3 (List.length pairs)

let test_concurrent_pairs_chain_ordered () =
  (* lock chain p0 -> p1 -> p2: no pair is concurrent *)
  let a = interval ~proc:0 ~index:1 ~seen:[] in
  let b = interval ~proc:1 ~index:1 ~seen:[ (0, 1) ] in
  let c = interval ~proc:2 ~index:1 ~seen:[ (0, 1); (1, 1) ] in
  let pairs = Racedetect.Detector.concurrent_pairs [ a; b; c ] in
  check Alcotest.int "chain fully ordered" 0 (List.length pairs)

let test_concurrent_pairs_skips_same_proc () =
  let stats = Sim.Stats.create () in
  let a = interval ~proc:0 ~index:1 ~seen:[] in
  let b = interval ~proc:0 ~index:2 ~seen:[] in
  let pairs = Racedetect.Detector.concurrent_pairs ~stats [ a; b ] in
  check Alcotest.int "no same-proc pairs" 0 (List.length pairs);
  check Alcotest.int "no comparisons spent" 0 stats.Sim.Stats.interval_comparisons

let test_check_list_requires_overlap () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[] in
  let c = with_accesses (interval ~proc:2 ~index:2 ~seen:[]) ~reads:[ (1, ()) ] ~writes:[] in
  let pairs = Racedetect.Detector.concurrent_pairs [ a; b; c ] in
  let entries = Racedetect.Detector.check_list pairs in
  (* only (a, c) share page 1 with a write *)
  check Alcotest.int "one entry" 1 (List.length entries);
  let entry = List.hd entries in
  check (Alcotest.list Alcotest.int) "page 1" [ 1 ] entry.Racedetect.Checklist.pages

let test_races_word_granularity () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (1, ()) ] ~writes:[ (1, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 1 ] } in
  (* a writes words 3,4; b writes word 4 and reads word 9: expect one
     write-write race at word 4, nothing at 3 (false sharing) or 9 *)
  let source =
    source_of [ ((ia, 1, `W), [ 3; 4 ]); ((ib, 1, `W), [ 4 ]); ((ib, 1, `R), [ 9 ]) ]
  in
  let races = Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry in
  check Alcotest.int "one race" 1 (List.length races);
  let race = List.hd races in
  check Alcotest.int "word 4" 4 race.Proto.Race.word;
  check Alcotest.bool "write-write" true (Proto.Race.is_write_write race)

let test_races_read_write_both_directions () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[ (2, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[ (2, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 2 ] } in
  let source =
    source_of
      [
        ((ia, 2, `W), [ 1 ]); ((ia, 2, `R), [ 2 ]); ((ib, 2, `W), [ 2 ]); ((ib, 2, `R), [ 1 ]);
      ]
  in
  let races =
    Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry |> Proto.Race.dedup
  in
  (* a writes 1 / b reads 1, and a reads 2 / b writes 2 *)
  check Alcotest.int "two races" 2 (List.length races);
  check (Alcotest.list Alcotest.int) "words" [ 1; 2 ]
    (List.sort compare (List.map (fun (r : Proto.Race.t) -> r.word) races))

let test_false_sharing_no_race () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 1 ] } in
  let source = source_of [ ((ia, 1, `W), [ 0 ]); ((ib, 1, `W), [ 100 ]) ] in
  let races = Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry in
  check Alcotest.int "false sharing: no race" 0 (List.length races)

let test_bitmap_requests_dedup () =
  let entries =
    [
      { Racedetect.Checklist.a = { proc = 0; index = 1 }; b = { proc = 1; index = 1 }; pages = [ 1; 2 ] };
      { Racedetect.Checklist.a = { proc = 0; index = 1 }; b = { proc = 2; index = 1 }; pages = [ 1 ] };
    ]
  in
  let requests = Racedetect.Checklist.bitmap_requests entries in
  check Alcotest.int "deduplicated" 5 (List.length requests);
  let p0 = Racedetect.Checklist.requests_for_proc entries ~proc:0 in
  check Alcotest.int "proc 0 owns 2 bitmaps" 2 (List.length p0)

let test_first_races () =
  let race epoch =
    {
      Proto.Race.addr = 8 * epoch;
      page = 0;
      word = epoch;
      first = ({ Proto.Interval.proc = 0; index = 1 }, Proto.Race.Write);
      second = ({ Proto.Interval.proc = 1; index = 1 }, Proto.Race.Write);
      epoch;
    }
  in
  let filtered = Racedetect.Detector.first_races [ race 3; race 1; race 2; race 1 ] in
  check Alcotest.int "earliest epoch only" 2 (List.length filtered);
  List.iter (fun (r : Proto.Race.t) -> check Alcotest.int "epoch 1" 1 r.epoch) filtered;
  check Alcotest.int "empty stays empty" 0 (List.length (Racedetect.Detector.first_races []))

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_lock_ordered () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Acquire 1); (0, Write 4096); (0, Release 1);
      (1, Acquire 1); (1, Read 4096); (1, Release 1);
    ]
  in
  check Alcotest.int "lock-ordered accesses race-free" 0
    (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_unordered_race () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 4096); (1, Read 4096) ] in
  check (Alcotest.list Alcotest.int) "race found" [ 4096 ] (racy_addrs ~nprocs:2 trace)

let test_oracle_different_locks_race () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Acquire 1); (0, Write 8); (0, Release 1);
      (1, Acquire 2); (1, Write 8); (1, Release 2);
    ]
  in
  check Alcotest.int "different locks do not order" 1
    (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_barrier_orders () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 16); (0, Barrier); (1, Barrier); (1, Write 16) ] in
  check Alcotest.int "barrier orders" 0 (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_transitive_chain () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Write 24); (0, Release 1);
      (1, Acquire 1); (1, Release 2);
      (2, Acquire 2); (2, Write 24);
    ]
  in
  check Alcotest.int "transitive order through two locks" 0
    (List.length (racy_addrs ~nprocs:3 trace))

let test_oracle_read_read_no_race () =
  let open Racedetect.Oracle in
  let trace = [ (0, Read 8); (1, Read 8) ] in
  check Alcotest.int "read-read" 0 (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_kinds () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 8); (1, Write 8); (1, Read 8) ] in
  let races = races_of_trace ~nprocs:2 trace in
  (* one ww pair and one wr pair, both on the same word *)
  check Alcotest.int "two kinds of pair" 2 (List.length races)

(* Both the LRC barrier master and the bus backends run only the fused
   steps-2+3 scan; it must stay indistinguishable from the unfused
   [concurrent_pairs |> check_list] composition it replaced: same
   entries in the same order, same concurrent-pair count, same probe
   sequence and the same statistics. Vector clocks are drawn at random
   (not necessarily causally consistent) so every branch of the
   concurrency test is exercised. *)

type interval_spec = {
  s_proc : int;
  s_index : int;
  s_seen : int list;  (* vc entry per processor; own entry is [s_index] *)
  s_reads : int list;
  s_writes : int list;
}

let gen_epoch =
  let open QCheck.Gen in
  int_range 2 4 >>= fun nprocs ->
  let spec proc index =
    list_repeat nprocs (int_bound 4) >>= fun s_seen ->
    list_size (int_bound 3) (int_bound 5) >>= fun s_reads ->
    list_size (int_bound 3) (int_bound 5) >>= fun s_writes ->
    return { s_proc = proc; s_index = index; s_seen; s_reads; s_writes }
  in
  list_repeat nprocs (int_bound 4) >>= fun counts ->
  flatten_l
    (List.concat
       (List.mapi (fun proc k -> List.init k (fun i -> spec proc (i + 1))) counts))
  >>= shuffle_l
  >>= fun specs -> return (nprocs, specs)

let print_epoch (nprocs, specs) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "nprocs=%d %s" nprocs
    (String.concat " "
       (List.map
          (fun s ->
            Printf.sprintf "p%d.%d[vc %s r %s w %s]" s.s_proc s.s_index (ints s.s_seen)
              (ints s.s_reads) (ints s.s_writes))
          specs))

let intervals_of_epoch (nprocs, specs) =
  List.map
    (fun s ->
      let vc = Proto.Vclock.create nprocs in
      List.iteri (fun q i -> Proto.Vclock.set vc q i) s.s_seen;
      Proto.Vclock.set vc s.s_proc s.s_index;
      let iv = Proto.Interval.create ~proc:s.s_proc ~index:s.s_index ~vc ~epoch:0 in
      List.iter (Proto.Interval.add_read_page iv) s.s_reads;
      List.iter (Proto.Interval.add_write_page iv) s.s_writes;
      iv.Proto.Interval.closed <- true;
      iv)
    specs

let detector_counters (s : Sim.Stats.t) =
  [
    s.Sim.Stats.interval_comparisons;
    s.Sim.Stats.concurrent_pairs;
    s.Sim.Stats.overlapping_pairs;
    s.Sim.Stats.intervals_in_overlap;
  ]

let prop_fused_check_list =
  QCheck.Test.make ~name:"fused check list = concurrent_pairs |> check_list" ~count:300
    (QCheck.make ~print:print_epoch gen_epoch)
    (fun epoch ->
      let intervals = intervals_of_epoch epoch in
      let unfused_stats = Sim.Stats.create () and fused_stats = Sim.Stats.create () in
      let unfused_seen = ref [] and fused_seen = ref [] in
      let pairs = Racedetect.Detector.concurrent_pairs ~stats:unfused_stats intervals in
      let unfused =
        Racedetect.Detector.check_list ~stats:unfused_stats
          ~probe:(fun e -> unfused_seen := e :: !unfused_seen)
          pairs
      in
      let count, fused =
        Racedetect.Detector.concurrent_check_list ~stats:fused_stats
          ~probe:(fun e -> fused_seen := e :: !fused_seen)
          intervals
      in
      fused = unfused
      && count = List.length pairs
      && !fused_seen = !unfused_seen
      && detector_counters fused_stats = detector_counters unfused_stats)

let suite =
  [
    ( "detector",
      [
        Alcotest.test_case "barrier epoch all-pairs" `Quick test_concurrent_pairs_barrier_epoch;
        Alcotest.test_case "lock chain ordered" `Quick test_concurrent_pairs_chain_ordered;
        Alcotest.test_case "same-proc skipped" `Quick test_concurrent_pairs_skips_same_proc;
        Alcotest.test_case "check list needs overlap" `Quick test_check_list_requires_overlap;
        QCheck_alcotest.to_alcotest prop_fused_check_list;
        Alcotest.test_case "word granularity" `Quick test_races_word_granularity;
        Alcotest.test_case "rw both directions" `Quick test_races_read_write_both_directions;
        Alcotest.test_case "false sharing ignored" `Quick test_false_sharing_no_race;
        Alcotest.test_case "bitmap request dedup" `Quick test_bitmap_requests_dedup;
        Alcotest.test_case "first races" `Quick test_first_races;
      ] );
    ( "oracle",
      [
        Alcotest.test_case "lock ordered" `Quick test_oracle_lock_ordered;
        Alcotest.test_case "unordered race" `Quick test_oracle_unordered_race;
        Alcotest.test_case "different locks" `Quick test_oracle_different_locks_race;
        Alcotest.test_case "barrier orders" `Quick test_oracle_barrier_orders;
        Alcotest.test_case "transitive chain" `Quick test_oracle_transitive_chain;
        Alcotest.test_case "read-read" `Quick test_oracle_read_read_no_race;
        Alcotest.test_case "kinds" `Quick test_oracle_kinds;
      ] );
  ]
