(* Tests for the extensions beyond the paper's prototype: the LU workload,
   the symbol table, home-based LRC's version gating, and wire
   fragmentation. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)

let test_lu_race_free_all_protocols () =
  List.iter
    (fun protocol ->
      let cfg = { Testutil.detect_cfg with protocol } in
      let app = Apps.Registry.make ~scale:Apps.Registry.Small "lu" in
      let outcome = Core.Driver.run ~cfg ~app ~nprocs:4 () in
      check Testutil.addr_list "lu race-free" [] (Core.Driver.racy_addrs outcome);
      let oracle =
        Racedetect.Oracle.racy_addrs ~nprocs:4 outcome.Core.Driver.trace
      in
      check Testutil.addr_list "oracle agrees" [] oracle)
    [ Lrc.Config.Single_writer; Lrc.Config.Multi_writer; Lrc.Config.Home_based ]

let test_lu_reference_is_lu () =
  (* multiplying the factors back together recovers the input *)
  let n = 8 in
  let a = Apps.Lu.reference { Apps.Lu.n } in
  let recovered i j =
    let acc = ref 0.0 in
    for k = 0 to min i j do
      let l = if k = i then 1.0 else a.(i).(k) in
      let u = if k <= j then a.(k).(j) else 0.0 in
      if k < i || k <= j then acc := !acc +. (l *. u)
    done;
    !acc
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let want = Apps.Lu.input n i j in
      if Float.abs (recovered i j -. want) > 1e-9 *. (1.0 +. Float.abs want) then
        Alcotest.fail (Printf.sprintf "L*U mismatch at (%d,%d)" i j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Symbol table                                                        *)

let test_symtab_resolution () =
  let symtab = Mem.Symtab.create () in
  Mem.Symtab.register symtab ~name:"counter" ~base:1000 ~bytes:8;
  Mem.Symtab.register symtab ~name:"grid" ~base:2000 ~bytes:800;
  check Alcotest.string "exact" "counter" (Mem.Symtab.name_of symtab 1000);
  check Alcotest.string "indexed" "grid[3]" (Mem.Symtab.name_of symtab 2024);
  check Alcotest.string "unknown" "0x00000bb8" (Mem.Symtab.name_of symtab 3000);
  check Alcotest.string "offset in scalar" "counter+4" (Mem.Symtab.name_of symtab 1004)

let test_symtab_overlap_rejected () =
  let symtab = Mem.Symtab.create () in
  Mem.Symtab.register symtab ~name:"a" ~base:0 ~bytes:16;
  Alcotest.check_raises "overlap" (Invalid_argument "Symtab.register: b overlaps a")
    (fun () -> Mem.Symtab.register symtab ~name:"b" ~base:8 ~bytes:8)

let test_symbolic_race_reports () =
  let cluster = Lrc.Cluster.create ~cfg:Testutil.detect_cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 ~name:"shared_flag" in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    if pid node = 0 then write_int node x 1;
    if pid node = 1 then ignore (read_int node x);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  match Lrc.Cluster.races cluster with
  | [ race ] ->
      let rendered =
        Format.asprintf "%a"
          (Proto.Race.pp_named ~name_of:(Mem.Symtab.name_of (Lrc.Cluster.symtab cluster)))
          race
      in
      check Alcotest.bool "symbolic name in report" true
        (Testutil.contains rendered "shared_flag")
  | _ -> Alcotest.fail "expected one race"

(* ------------------------------------------------------------------ *)
(* Home-based LRC specifics                                            *)

let test_hb_fetch_waits_for_flush () =
  (* the home must not serve a fetch until the flush carrying the needed
     version has arrived — force the gap with a slow network *)
  let cost = { Sim.Cost.default with msg_latency_ns = 2_000_000 } in
  let cfg = { Lrc.Config.default with protocol = Lrc.Config.Home_based } in
  let cluster = Lrc.Cluster.create ~cost ~cfg ~nprocs:3 ~pages:4 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  (* page 0's home is processor 0; the writer and reader are 1 and 2 *)
  let body node =
    let open Coherence.Dsm in
    barrier node;
    if pid node = 1 then with_lock node 7 (fun () -> write_int node x 42);
    if pid node = 2 then begin
      idle node 500_000.0;
      let v = with_lock node 7 (fun () -> read_int node x) in
      if v <> 42 then failwith (Printf.sprintf "hb stale read: %d" v)
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body

let test_hb_paper_counters () =
  (* under HLRC all coherence data motion is flushes + home fetches *)
  let cfg = { Lrc.Config.default with protocol = Lrc.Config.Home_based; detect = false } in
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  let outcome = Core.Driver.run ~cfg ~app ~nprocs:4 () in
  let stats = outcome.Core.Driver.stats in
  check Alcotest.bool "diffs flushed" true (stats.Sim.Stats.diffs_created > 0);
  check Alcotest.bool "home fetches happened" true (stats.Sim.Stats.pages_fetched > 0)

(* ------------------------------------------------------------------ *)
(* Fragmentation                                                       *)

let test_fragmentation_math () =
  let cost = { Sim.Cost.default with max_message_bytes = 1000; fragment_overhead_bytes = 10 } in
  check Alcotest.int "small payload" 1 (Sim.Cost.fragments cost ~bytes:999);
  check Alcotest.int "exact fit" 1 (Sim.Cost.fragments cost ~bytes:1000);
  check Alcotest.int "one over" 2 (Sim.Cost.fragments cost ~bytes:1001);
  check Alcotest.int "wire bytes include headers" (2501 + 20)
    (Sim.Cost.wire_bytes cost ~bytes:2501);
  check Alcotest.bool "fragmented message slower" true
    (Sim.Cost.message_ns cost ~bytes:2501 > Sim.Cost.message_ns cost ~bytes:999)

let test_fragments_counted () =
  (* a tiny MTU forces page fetches to fragment *)
  let cost = { Sim.Cost.default with max_message_bytes = 1024 } in
  let cluster = Lrc.Cluster.create ~cost ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    if pid node = 0 then write_int node x 5;
    barrier node;
    if pid node = 1 then ignore (read_int node x) (* 4 KB page fetch: 4+ fragments *);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let stats = Lrc.Cluster.stats cluster in
  check Alcotest.bool "more fragments than messages" true
    (stats.Sim.Stats.fragments > stats.Sim.Stats.messages)

(* ------------------------------------------------------------------ *)
(* Failure injection: delivery jitter must not break coherence or
   detection (per-link FIFO is preserved by the network layer)          *)

let test_jitter_coherence protocol () =
  List.iter
    (fun seed ->
      let cost = { Sim.Cost.default with jitter_ns = 400_000 } in
      let cfg = { Testutil.detect_cfg with protocol; seed } in
      let cluster = Lrc.Cluster.create ~cost ~cfg ~nprocs:4 ~pages:4 () in
      let counter = Lrc.Cluster.alloc cluster 8 in
      let racy = Lrc.Cluster.alloc cluster 8 in
      let body node =
        let open Coherence.Dsm in
        barrier node;
        for _ = 1 to 5 do
          with_lock node 3 (fun () ->
              let v = read_int node counter in
              compute node 20_000.0;
              write_int node counter (v + 1))
        done;
        if pid node = 0 then write_int node racy 1;
        if pid node = 3 then ignore (read_int node racy);
        barrier node;
        if pid node = 0 then begin
          let total = read_int node counter in
          if total <> 20 then failwith (Printf.sprintf "jitter lost updates: %d" total)
        end;
        barrier node
      in
      Lrc.Cluster.run cluster ~body;
      let detected = Testutil.racy_addrs_of cluster in
      let oracle = Racedetect.Oracle.racy_addrs ~nprocs:4 (Lrc.Cluster.trace cluster) in
      check Testutil.addr_list "detector = oracle under jitter" oracle detected;
      check Testutil.addr_list "exactly the racy word" [ racy ] detected)
    [ 1; 7; 23 ]

let test_jitter_water () =
  let cost = { Sim.Cost.default with jitter_ns = 250_000 } in
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "water" in
  (* the body self-checks against the reference; jitter must not corrupt *)
  ignore (Core.Driver.run ~cost ~app ~nprocs:4 ())

(* ------------------------------------------------------------------ *)
(* Section 6.2: linear-time page-overlap via bitmaps                   *)

let interval_with ~proc ~reads ~writes =
  let vc = Proto.Vclock.create 4 in
  Proto.Vclock.set vc proc 2;
  let interval = Proto.Interval.create ~proc ~index:2 ~vc ~epoch:0 in
  List.iter (Proto.Interval.add_read_page interval) reads;
  List.iter (Proto.Interval.add_write_page interval) writes;
  interval

let prop_linear_overlap_equivalent =
  QCheck.Test.make ~name:"bitmap page-overlap = list page-overlap" ~count:200
    QCheck.(quad (list (int_bound 63)) (list (int_bound 63)) (list (int_bound 63))
              (list (int_bound 63)))
    (fun (ra, wa, rb, wb) ->
      let a = interval_with ~proc:0 ~reads:ra ~writes:wa in
      let b = interval_with ~proc:1 ~reads:rb ~writes:wb in
      Racedetect.Detector.overlapping_pages_linear ~npages:64 a b
      = Proto.Interval.overlapping_pages a b)

let suite =
  [
    ( "extensions:lu",
      [
        Alcotest.test_case "race-free, all protocols" `Quick test_lu_race_free_all_protocols;
        Alcotest.test_case "reference factorization" `Quick test_lu_reference_is_lu;
      ] );
    ( "extensions:symtab",
      [
        Alcotest.test_case "resolution" `Quick test_symtab_resolution;
        Alcotest.test_case "overlap rejected" `Quick test_symtab_overlap_rejected;
        Alcotest.test_case "symbolic race reports" `Quick test_symbolic_race_reports;
      ] );
    ( "extensions:home-based",
      [
        Alcotest.test_case "fetch waits for flush" `Quick test_hb_fetch_waits_for_flush;
        Alcotest.test_case "coherence counters" `Quick test_hb_paper_counters;
      ] );
    ( "extensions:robustness",
      [
        Alcotest.test_case "jitter: single-writer" `Quick
          (test_jitter_coherence Lrc.Config.Single_writer);
        Alcotest.test_case "jitter: multi-writer" `Quick
          (test_jitter_coherence Lrc.Config.Multi_writer);
        Alcotest.test_case "jitter: home-based" `Quick
          (test_jitter_coherence Lrc.Config.Home_based);
        Alcotest.test_case "jitter: water self-check" `Quick test_jitter_water;
        QCheck_alcotest.to_alcotest prop_linear_overlap_equivalent;
      ] );
    ( "extensions:fragmentation",
      [
        Alcotest.test_case "math" `Quick test_fragmentation_math;
        Alcotest.test_case "counted" `Quick test_fragments_counted;
      ] );
  ]
