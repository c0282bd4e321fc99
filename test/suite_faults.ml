(* Lossy-network mode, end to end: the DSM protocols and the race
   detector running over Sim.Transport on a faulty wire must behave
   exactly as they do over the reliable wire — same detector = oracle
   agreement, same racy addresses, and (for barrier-deterministic apps)
   the same reports and final memory image bit for bit. *)

let check = Alcotest.check

let lossy_plan drop =
  { Sim.Fault.none with Sim.Fault.drop; duplicate = drop /. 4.0; reorder = drop /. 2.0 }

let fault_cfg ?(drop = 0.2) ?watchdog_ns ?transport seed =
  {
    Testutil.detect_cfg with
    Lrc.Config.seed;
    fault = lossy_plan drop;
    transport =
      (match transport with Some _ as t -> t | None -> Some Sim.Transport.default_config);
    watchdog_ns;
  }

(* ------------------------------------------------------------------ *)
(* Coherence and detection correctness on a lossy wire                  *)

let test_lossy_coherence protocol () =
  (* the jitter-coherence scenario, with 20% of wire frames dropped and
     more duplicated/reordered: locked increments must not be lost, and
     the detector must still agree with the offline oracle *)
  List.iter
    (fun seed ->
      let cfg = { (fault_cfg seed) with Lrc.Config.protocol } in
      let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
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
          if total <> 20 then failwith (Printf.sprintf "lossy wire lost updates: %d" total)
        end;
        barrier node
      in
      Lrc.Cluster.run cluster ~body;
      let detected = Testutil.racy_addrs_of cluster in
      let oracle = Racedetect.Oracle.racy_addrs ~nprocs:4 (Lrc.Cluster.trace cluster) in
      check Testutil.addr_list "detector = oracle under loss" oracle detected;
      check Testutil.addr_list "exactly the racy word" [ racy ] detected;
      let stats = Lrc.Cluster.stats cluster in
      check Alcotest.bool "wire was lossy" true (stats.Sim.Stats.frames_dropped > 0);
      check Alcotest.bool "retransmissions repaired it" true
        (stats.Sim.Stats.retransmits > 0))
    [ 1; 7; 23 ]

(* ------------------------------------------------------------------ *)
(* Report stability: 0% drop vs 20% drop                                *)

let run_app ~name ~drop =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small name in
  let cfg =
    {
      Lrc.Config.default with
      Lrc.Config.fault = lossy_plan drop;
      transport = Some Sim.Transport.default_config;
    }
  in
  Core.Driver.run ~cfg ~app ~nprocs:4 ()

let test_sor_reports_stable () =
  (* SOR is barrier-only, hence fully deterministic: a 20%-drop run must
     reproduce the 0%-drop run's races AND memory image bit for bit *)
  let clean = run_app ~name:"sor" ~drop:0.0 in
  let lossy = run_app ~name:"sor" ~drop:0.2 in
  check Alcotest.int "same race count" (List.length clean.Core.Driver.races)
    (List.length lossy.Core.Driver.races);
  check Testutil.addr_list "same racy addresses" (Core.Driver.racy_addrs clean)
    (Core.Driver.racy_addrs lossy);
  check Alcotest.bool "identical race reports" true
    (clean.Core.Driver.races = lossy.Core.Driver.races);
  check Alcotest.int "identical memory image" clean.Core.Driver.mem_checksum
    lossy.Core.Driver.mem_checksum;
  check Alcotest.bool "clean transport never retransmits" true
    (clean.Core.Driver.stats.Sim.Stats.retransmits = 0);
  check Alcotest.bool "lossy run retransmits" true
    (lossy.Core.Driver.stats.Sim.Stats.retransmits > 0)

let test_tsp_racy_set_stable () =
  (* TSP is lock-based: retransmission delays may permute lock grants, so
     only the racy-address set is required to be stable *)
  let clean = run_app ~name:"tsp" ~drop:0.0 in
  let lossy = run_app ~name:"tsp" ~drop:0.2 in
  check Testutil.addr_list "same racy addresses" (Core.Driver.racy_addrs clean)
    (Core.Driver.racy_addrs lossy)

(* ------------------------------------------------------------------ *)
(* Watchdog and capped retries at the cluster level                     *)

let severed = { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = max_int }

let test_capped_retries_structured_diagnosis () =
  (* node 1 is permanently partitioned from the manager: the transport
     exhausts its retry cap and the run ends in a structured diagnosis
     naming the blocked processes and the dead link — not a livelock *)
  let cfg =
    {
      Testutil.detect_cfg with
      Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.partitions = [ severed ] };
      transport = Some { Sim.Transport.default_config with Sim.Transport.max_retries = 5 };
    }
  in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  match Lrc.Cluster.run cluster ~body:(fun node -> Coherence.Dsm.barrier node) with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      let text = Sim.Engine.diagnosis_to_string diagnosis in
      check Alcotest.bool "not a stall: retries capped, queue drained" false
        diagnosis.Sim.Engine.diag_stalled;
      check Alcotest.int "both processes still live" 2 diagnosis.Sim.Engine.diag_live;
      check Alcotest.bool "reports the dead link" true (Testutil.contains text "FAILED");
      check Alcotest.bool "reports the half-arrived barrier" true
        (Testutil.contains text "1 of 2 arrival(s)");
      check Alcotest.bool "link failure counted" true
        ((Lrc.Cluster.stats cluster).Sim.Stats.link_failures > 0)

let test_watchdog_breaks_retransmission_livelock () =
  (* with an effectively unbounded retry cap the timers alone would spin
     forever; the virtual-time watchdog must cut the run short *)
  let cfg =
    {
      (fault_cfg 3) with
      Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.partitions = [ severed ] };
      transport =
        Some { Sim.Transport.default_config with Sim.Transport.max_retries = max_int };
      watchdog_ns = Some 200_000_000;
    }
  in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:2 ~pages:2 () in
  match Lrc.Cluster.run cluster ~body:(fun node -> Coherence.Dsm.barrier node) with
  | () -> Alcotest.fail "expected stall Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check Alcotest.bool "watchdog verdict" true diagnosis.Sim.Engine.diag_stalled;
      check Alcotest.bool "transport state in the diagnosis" true
        (Testutil.contains (Sim.Engine.diagnosis_to_string diagnosis) "unacked")

let test_watchdog_quiet_on_healthy_run () =
  (* a tight watchdog must not fire on a healthy lossy run *)
  let cfg = fault_cfg ~watchdog_ns:50_000_000 5 in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
  let counter = Lrc.Cluster.alloc cluster 8 in
  Lrc.Cluster.run cluster ~body:(fun node ->
      let open Coherence.Dsm in
      barrier node;
      with_lock node 0 (fun () ->
          write_int node counter (read_int node counter + 1));
      barrier node);
  check Alcotest.bool "completed" true (Lrc.Cluster.sim_time cluster > 0)

(* ------------------------------------------------------------------ *)
(* RNG stream independence                                              *)

let test_fault_rng_does_not_perturb_jitter () =
  (* same seed, jitter on: enabling the transport + fault machinery must
     not change which jitter values the reliable-path draws would see.
     We verify the seam at the Net layer: two reliable runs with the same
     net seed are identical, and a lossy run with the same seed still
     converges to the same final memory (SOR is barrier-deterministic). *)
  let run ~drop ~transport =
    let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
    let cost = { Sim.Cost.default with Sim.Cost.jitter_ns = 300_000 } in
    let cfg =
      {
        Lrc.Config.default with
        Lrc.Config.fault = lossy_plan drop;
        transport = (if transport then Some Sim.Transport.default_config else None);
        net_seed = Some 99;
      }
    in
    Core.Driver.run ~cost ~cfg ~app ~nprocs:4 ()
  in
  let a = run ~drop:0.0 ~transport:false in
  let b = run ~drop:0.0 ~transport:false in
  check Alcotest.int "reliable runs reproducible" a.Core.Driver.sim_time_ns
    b.Core.Driver.sim_time_ns;
  let c = run ~drop:0.2 ~transport:true in
  check Alcotest.int "lossy converges to the same memory" a.Core.Driver.mem_checksum
    c.Core.Driver.mem_checksum;
  check Alcotest.bool "lossy races match" true
    (Core.Driver.racy_addrs a = Core.Driver.racy_addrs c)

let suite =
  [
    ( "faults:coherence",
      [
        Alcotest.test_case "lossy: single-writer" `Quick
          (test_lossy_coherence Lrc.Config.Single_writer);
        Alcotest.test_case "lossy: multi-writer" `Quick
          (test_lossy_coherence Lrc.Config.Multi_writer);
        Alcotest.test_case "lossy: home-based" `Quick
          (test_lossy_coherence Lrc.Config.Home_based);
      ] );
    ( "faults:stability",
      [
        Alcotest.test_case "sor bit-identical at 20% drop" `Quick test_sor_reports_stable;
        Alcotest.test_case "tsp racy set stable at 20% drop" `Quick test_tsp_racy_set_stable;
        Alcotest.test_case "fault rng independent of jitter" `Quick
          test_fault_rng_does_not_perturb_jitter;
      ] );
    ( "faults:watchdog",
      [
        Alcotest.test_case "capped retries diagnosed" `Quick
          test_capped_retries_structured_diagnosis;
        Alcotest.test_case "watchdog breaks livelock" `Quick
          test_watchdog_breaks_retransmission_livelock;
        Alcotest.test_case "watchdog quiet when healthy" `Quick
          test_watchdog_quiet_on_healthy_run;
      ] );
  ]
