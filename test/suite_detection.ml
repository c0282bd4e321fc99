(* End-to-end validation of the online detector against the independent
   offline oracle, including randomized programs, plus the accuracy
   features of section 6: first-race filtering, the stores-from-diffs
   weakness, the Figure 5 weak-memory scenario, and the two-run
   reference-identification flow. *)

let check = Alcotest.check

let protocols =
  [
    ("single-writer", Lrc.Config.Single_writer);
    ("multi-writer", Lrc.Config.Multi_writer);
    ("home-based", Lrc.Config.Home_based);
    ("seq-consistent", Lrc.Config.Seq_consistent);
  ]

(* ------------------------------------------------------------------ *)
(* Hand-written scenarios                                              *)

let scenario_mixed protocol () =
  (* lock-protected counter (no race), unsynchronized write/read pair
     (race), false sharing on one page (no race) *)
  let cfg = { Testutil.detect_cfg with protocol } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:3 ~pages:4 () in
  let counter = Lrc.Cluster.alloc cluster 8 in
  let racy = Lrc.Cluster.alloc cluster 8 in
  let striped = Lrc.Cluster.alloc cluster (3 * 8) in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    with_lock node 0 (fun () ->
        let v = read_int node counter in
        write_int node counter (v + 1));
    write_int_at node striped (pid node) (pid node) (* false sharing *);
    if pid node = 0 then write_int node racy 1;
    if pid node = 1 then ignore (read_int node racy);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let detected = Testutil.racy_addrs_of cluster in
  let oracle = Racedetect.Oracle.racy_addrs ~nprocs:3 (Lrc.Cluster.trace cluster) in
  check Testutil.addr_list "only the unsynchronized word races" [ racy ] detected;
  check Testutil.addr_list "oracle agrees" oracle detected

let test_detect_off_reports_nothing () =
  let cfg = { Lrc.Config.default with detect = false } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    if pid node = 0 then write_int node x 1 else ignore (read_int node x);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check Alcotest.int "no reports with detection off" 0
    (List.length (Lrc.Cluster.races cluster))

let test_race_report_details () =
  let cfg = Testutil.detect_cfg in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 16 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    write_int_at node x 1 (pid node) (* word 1: write-write race *);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  match Lrc.Cluster.races cluster with
  | [ race ] ->
      check Alcotest.int "address" (x + 8) race.Proto.Race.addr;
      check Alcotest.int "word" 1 race.Proto.Race.word;
      check Alcotest.bool "write-write" true (Proto.Race.is_write_write race);
      check Alcotest.int "epoch 1 (between barriers)" 1 race.Proto.Race.epoch;
      let (a, _), (b, _) = (race.Proto.Race.first, race.Proto.Race.second) in
      check Alcotest.bool "distinct processors" true
        (a.Proto.Interval.proc <> b.Proto.Interval.proc)
  | races -> Alcotest.fail (Printf.sprintf "expected exactly one race, got %d" (List.length races))

(* lock-chain ordering must suppress reports even without barriers in
   between (detection still happens at the final barrier) *)
let test_lock_chain_no_false_positive () =
  let cfg = Testutil.detect_cfg in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    (* every proc appends under the same lock: all accesses ordered *)
    with_lock node 1 (fun () ->
        let v = read_int node x in
        compute node 10_000.0;
        write_int node x (v + (1 lsl pid node)));
    barrier node;
    if pid node = 0 then begin
      let v = read_int node x in
      if v <> 0b1111 then failwith (Printf.sprintf "sum %d" v)
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check Testutil.addr_list "no false positives" [] (Testutil.racy_addrs_of cluster)

(* ------------------------------------------------------------------ *)
(* Randomized programs: detector == oracle, every protocol             *)

let random_program_case =
  (* A program is, per processor, a list of segments; each segment picks a
     word, whether to guard with a lock (the lock index equals the word,
     giving a mix of properly- and improperly-synchronized accesses), and
     whether to write. Some segments are barriers. *)
  let open QCheck in
  let segment =
    Gen.(
      frequency
        [
          (1, return `Barrier);
          ( 6,
            map3
              (fun word guarded write -> `Access (word, guarded, write))
              (int_bound 7) bool bool );
        ])
  in
  let program = Gen.(list_size (int_range 1 12) segment) in
  make
    ~print:(fun procs ->
      String.concat " | "
        (List.map
           (fun segments ->
             String.concat ";"
               (List.map
                  (function
                    | `Barrier -> "B"
                    | `Access (w, g, wr) ->
                        Printf.sprintf "%s%d%s" (if wr then "w" else "r") w
                          (if g then "L" else ""))
                  segments))
           procs))
    Gen.(list_size (return 3) program)

let run_random_program protocol procs =
  let nprocs = List.length procs in
  let cfg = { Testutil.detect_cfg with protocol } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs ~pages:4 () in
  let base = Lrc.Cluster.alloc cluster (8 * 8) in
  (* every processor must arrive at every barrier: pad with the maximum
     barrier count *)
  let barrier_count segments =
    List.length (List.filter (fun s -> s = `Barrier) segments)
  in
  let max_barriers = List.fold_left (fun acc p -> max acc (barrier_count p)) 0 procs in
  let body node =
    let open Coherence.Dsm in
    let segments = List.nth procs (pid node) in
    barrier node;
    let crossed = ref 0 in
    List.iter
      (fun segment ->
        match segment with
        | `Barrier ->
            incr crossed;
            barrier node
        | `Access (word, guarded, write) ->
            let act () =
              if write then write_int_at node base word (pid node)
              else ignore (read_int_at node base word)
            in
            if guarded then with_lock node word act else act ())
      segments;
    for _ = !crossed + 1 to max_barriers do
      barrier node
    done;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let detected = Testutil.racy_addrs_of cluster in
  let oracle = Racedetect.Oracle.racy_addrs ~nprocs (Lrc.Cluster.trace cluster) in
  (detected, oracle)

let prop_random_matches_oracle (name, protocol) =
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs: detector = oracle (%s)" name)
    ~count:40 random_program_case
    (fun procs ->
      let detected, oracle = run_random_program protocol procs in
      detected = oracle)

(* ------------------------------------------------------------------ *)
(* First-race filtering (section 6.4)                                  *)

let test_first_race_only () =
  let run first_race_only =
    let cfg = { Testutil.detect_cfg with first_race_only } in
    let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
    let x = Lrc.Cluster.alloc cluster 16 in
    let body node =
      let open Coherence.Dsm in
      barrier node;
      write_int_at node x 0 (pid node) (* race in epoch 1 *);
      barrier node;
      write_int_at node x 1 (pid node) (* race in epoch 2 *);
      barrier node
    in
    Lrc.Cluster.run cluster ~body;
    List.map (fun (r : Proto.Race.t) -> r.epoch) (Lrc.Cluster.races cluster)
    |> List.sort_uniq compare
  in
  check (Alcotest.list Alcotest.int) "all epochs without filter" [ 1; 2 ] (run false);
  check (Alcotest.list Alcotest.int) "first epoch only with filter" [ 1 ] (run true)

(* ------------------------------------------------------------------ *)
(* Section 6.5: stores from diffs find ww races but miss same-value
   overwrites                                                          *)

let run_overwrite_scenario ~stores_from_diffs ~same_value =
  let cfg =
    {
      Testutil.detect_cfg with
      protocol = Lrc.Config.Multi_writer;
      stores_from_diffs;
    }
  in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    if pid node = 0 then write_int node x 7;
    barrier node;
    (* both write the word; with [same_value] p1 writes the value already
       there, which leaves no trace in its diff *)
    if pid node = 0 then write_int node x 9;
    if pid node = 1 then write_int node x (if same_value then 7 else 8);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  List.length (Lrc.Cluster.races cluster)

let test_stores_from_diffs_detects () =
  check Alcotest.bool "different-value ww race found" true
    (run_overwrite_scenario ~stores_from_diffs:true ~same_value:false > 0)

let test_stores_from_diffs_blind_spot () =
  (* the paper's stated weakness: a same-value overwrite is invisible in
     the diff, so one side of the race disappears *)
  let full = run_overwrite_scenario ~stores_from_diffs:false ~same_value:true in
  let diffs = run_overwrite_scenario ~stores_from_diffs:true ~same_value:true in
  check Alcotest.bool "full instrumentation sees it" true (full > 0);
  check Alcotest.bool "diff-based write detection is blind to it" true (diffs < full)

(* ------------------------------------------------------------------ *)
(* Figure 5: weak-memory-only races                                    *)

let test_figure5_lrc_vs_sc () =
  let lrc = Core.Experiments.figure5 ~protocol:Lrc.Config.Single_writer () in
  let sc = Core.Experiments.figure5 ~protocol:Lrc.Config.Seq_consistent () in
  check Alcotest.int "LRC: P2 dequeues through the stale pointer" 37
    lrc.Core.Experiments.f5_qptr_seen_by_p2;
  check Alcotest.int "SC: P2 sees the fresh pointer" 100 sc.Core.Experiments.f5_qptr_seen_by_p2;
  let names result = List.map snd result.Core.Experiments.f5_racy_words in
  check (Alcotest.list Alcotest.string) "LRC races include the slots"
    [ "qPtr"; "qEmpty"; "slot[37]"; "slot[38]" ]
    (names lrc);
  check (Alcotest.list Alcotest.string) "SC races exclude the slots" [ "qPtr"; "qEmpty" ]
    (names sc)

(* ------------------------------------------------------------------ *)
(* Section 6.1 alternative: single-run site retention                   *)

let test_site_retention_resolves_race () =
  let cfg = { Testutil.detect_cfg with retain_sites = true } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    if pid node = 0 then write_int node x 1 ~site:"demo:publish";
    if pid node = 1 then ignore (read_int node x ~site:"demo:consume");
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  match Lrc.Cluster.races cluster with
  | [ race ] ->
      let a, b = Lrc.Cluster.race_sites cluster race in
      let sites = List.sort compare [ a; b ] in
      check
        (Alcotest.list (Alcotest.option Alcotest.string))
        "both sites retained"
        [ Some "demo:consume"; Some "demo:publish" ]
        sites
  | races -> Alcotest.fail (Printf.sprintf "expected one race, got %d" (List.length races))

let test_site_retention_off_resolves_nothing () =
  let cluster = Lrc.Cluster.create ~cfg:Testutil.detect_cfg ~nprocs:2 ~pages:2 () in
  let x = Lrc.Cluster.alloc cluster 8 in
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
      let a, b = Lrc.Cluster.race_sites cluster race in
      check Alcotest.bool "no sites without retention" true (a = None && b = None)
  | _ -> Alcotest.fail "expected one race"

(* ------------------------------------------------------------------ *)
(* Section 6.1: two-run reference identification with replay           *)

let test_two_run_site_identification () =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "tsp" in
  (* run 1: detect races, record the synchronization order *)
  let cfg1 = { Lrc.Config.default with record_sync = true } in
  let run1 = Core.Driver.run ~cfg:cfg1 ~app ~nprocs:4 () in
  let racy = Core.Driver.racy_addrs run1 in
  check Alcotest.bool "run 1 found the bound race" true (racy <> []);
  (* run 2: replay the same order, watch the racy addresses *)
  let cfg2 = { Lrc.Config.default with replay = run1.Core.Driver.sync_trace } in
  let run2 = Core.Driver.run ~cfg:cfg2 ~app ~nprocs:4 ~watch_addrs:racy () in
  check Testutil.addr_list "same races under replay" racy (Core.Driver.racy_addrs run2);
  let hit_sites = List.map (fun h -> h.Instrument.Watch.site) run2.Core.Driver.watch_hits in
  check Alcotest.bool "the unsynchronized pruning read is identified" true
    (List.mem "tsp:bound_prune" hit_sites);
  check Alcotest.bool "the locked update is identified" true
    (List.mem "tsp:bound_update" hit_sites)

let suite =
  [
    ( "detection:scenarios",
      List.map
        (fun (name, protocol) ->
          Alcotest.test_case ("mixed scenario " ^ name) `Quick (scenario_mixed protocol))
        protocols
      @ [
          Alcotest.test_case "detect off" `Quick test_detect_off_reports_nothing;
          Alcotest.test_case "report details" `Quick test_race_report_details;
          Alcotest.test_case "lock chain no false positive" `Quick
            test_lock_chain_no_false_positive;
        ] );
    ( "detection:random-vs-oracle",
      List.map (fun p -> QCheck_alcotest.to_alcotest (prop_random_matches_oracle p)) protocols
    );
    ( "detection:accuracy",
      [
        Alcotest.test_case "first-race filter" `Quick test_first_race_only;
        Alcotest.test_case "stores-from-diffs detects" `Quick test_stores_from_diffs_detects;
        Alcotest.test_case "stores-from-diffs blind spot" `Quick
          test_stores_from_diffs_blind_spot;
        Alcotest.test_case "figure 5: LRC vs SC" `Quick test_figure5_lrc_vs_sc;
        Alcotest.test_case "two-run site identification" `Quick
          test_two_run_site_identification;
        Alcotest.test_case "single-run site retention" `Quick
          test_site_retention_resolves_race;
        Alcotest.test_case "no sites without retention" `Quick
          test_site_retention_off_resolves_nothing;
      ] );
  ]
