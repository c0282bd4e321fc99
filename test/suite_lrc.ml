(* Integration tests for the DSM itself: coherence under all three
   protocols, locks, barriers, allocation, replay — including a
   regression stress for the ownership-steal lost-update bug. *)

let check = Alcotest.check

let protocols =
  [
    ("single-writer", Lrc.Config.Single_writer);
    ("multi-writer", Lrc.Config.Multi_writer);
    ("home-based", Lrc.Config.Home_based);
    ("seq-consistent", Lrc.Config.Seq_consistent);
  ]

(* ------------------------------------------------------------------ *)
(* Basic coherence: a barrier publishes writes                         *)

let test_barrier_publishes protocol () =
  let cfg = { Lrc.Config.default with protocol } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
  let base = Lrc.Cluster.alloc cluster (4 * 8) in
  let body node =
    let open Coherence.Dsm in
    write_int_at node base (pid node) (100 + pid node);
    barrier node;
    (* everyone checks everyone's slot *)
    for p = 0 to nprocs node - 1 do
      let v = read_int_at node base p in
      if v <> 100 + p then failwith (Printf.sprintf "slot %d = %d" p v)
    done;
    barrier node
  in
  Lrc.Cluster.run cluster ~body

(* ------------------------------------------------------------------ *)
(* Lock-protected read-modify-write: mutual exclusion + visibility     *)

let test_lock_counter protocol () =
  let cfg = { Lrc.Config.default with protocol } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
  let counter = Lrc.Cluster.alloc cluster 8 in
  let rounds = 10 in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    for _ = 1 to rounds do
      with_lock node 5 (fun () ->
          let v = read_int node counter in
          compute node 2_000.0;
          write_int node counter (v + 1))
    done;
    barrier node;
    if pid node = 0 then begin
      let total = read_int node counter in
      if total <> 4 * rounds then failwith (Printf.sprintf "counter = %d" total)
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body

(* Regression for the ownership-steal bug: many counters share pages,
   each guarded by its own lock, with randomized compute delays to vary
   the interleaving. Every increment must survive. *)
let test_lost_update_stress ~seed ~detect () =
  let worker_count = 8 and ncounters = 16 and rounds = 12 in
  let cfg = { Lrc.Config.default with detect; seed } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:worker_count ~pages:4 () in
  let base = Lrc.Cluster.alloc cluster (ncounters * 8 * 32) in
  let addr k = base + (k * 8 * 32) in
  let rng_master = Sim.Rng.create ~seed in
  let rngs = Array.init worker_count (fun _ -> Sim.Rng.split rng_master) in
  let body node =
    let open Coherence.Dsm in
    let rng = rngs.(pid node) in
    barrier node;
    for r = 1 to rounds do
      let k = (pid node + (r * 3)) mod ncounters in
      compute node (float_of_int (Sim.Rng.int rng 200_000));
      with_lock node (10 + k) (fun () ->
          let v = read_int node (addr k) in
          compute node (float_of_int (Sim.Rng.int rng 50_000));
          write_int node (addr k) (v + 1))
    done;
    barrier node;
    if pid node = 0 then begin
      let total = ref 0 in
      for k = 0 to ncounters - 1 do
        total := !total + read_int node (addr k)
      done;
      if !total <> worker_count * rounds then
        failwith
          (Printf.sprintf "lost updates: %d of %d survived" !total (worker_count * rounds))
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body

(* ------------------------------------------------------------------ *)
(* LRC semantics: an unsynchronized read may be stale (and the paper
   depends on it: Figure 5); a synchronized read must be fresh.         *)

let test_stale_read_before_sync () =
  let cluster = Lrc.Cluster.create ~nprocs:2 ~pages:4 () in
  let x = Lrc.Cluster.alloc cluster 8 in
  let observed = ref (-1) in
  let body node =
    let open Coherence.Dsm in
    if pid node = 0 then write_int node x 1;
    barrier node;
    (* p1 warms its copy; p0 overwrites without synchronizing *)
    if pid node = 1 then ignore (read_int node x);
    if pid node = 0 then begin
      compute node 2_000_000.0;
      write_int node x 2
    end;
    if pid node = 1 then begin
      compute node 4_000_000.0;
      observed := read_int node x
    end;
    barrier node;
    (* after the barrier p1 must see the new value *)
    if pid node = 1 then begin
      let v = read_int node x in
      if v <> 2 then failwith "post-barrier read stale"
    end;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  check Alcotest.int "pre-sync read is stale under LRC" 1 !observed

(* ------------------------------------------------------------------ *)
(* Multi-writer: concurrent writers to one page merge through diffs    *)

let test_multi_writer_merges () =
  let cfg = { Lrc.Config.default with protocol = Lrc.Config.Multi_writer } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:2 () in
  let base = Lrc.Cluster.alloc cluster (64 * 8) in
  let body node =
    let open Coherence.Dsm in
    barrier node;
    (* everyone writes a disjoint stripe of the SAME page concurrently *)
    for k = 0 to 15 do
      write_int_at node base ((pid node * 16) + k) (pid node + 1)
    done;
    barrier node;
    if pid node = 0 then
      for p = 0 to 3 do
        for k = 0 to 15 do
          let v = read_int_at node base ((p * 16) + k) in
          if v <> p + 1 then failwith (Printf.sprintf "stripe %d word %d = %d" p k v)
        done
      done;
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let stats = Lrc.Cluster.stats cluster in
  check Alcotest.bool "diffs were created" true (stats.Sim.Stats.diffs_created > 0)

(* ------------------------------------------------------------------ *)
(* API misuse errors and allocation, on every backend                  *)

let machine ~nprocs ~pages backend =
  Backends.create ~cfg:{ Coherence.Config.default with Coherence.Config.backend } ~nprocs
    ~pages ()

(* [body backend] runs once per registered backend. *)
let on_every_backend body () = List.iter body Backends.all

let expect_invalid backend ~fragment f =
  match f () with
  | () -> Alcotest.fail (backend ^ ": expected Invalid_argument")
  | exception Invalid_argument m ->
      check Alcotest.bool (backend ^ " message: " ^ m) true (Testutil.contains m fragment)

let test_lock_not_reentrant backend =
  let m = machine ~nprocs:1 ~pages:2 backend in
  let body node =
    Coherence.Dsm.lock node 1;
    Coherence.Dsm.lock node 1
  in
  expect_invalid backend ~fragment:"already held" (fun () -> m.Coherence.Backend.run body)

let test_unlock_without_lock backend =
  let m = machine ~nprocs:1 ~pages:2 backend in
  expect_invalid backend ~fragment:"not held" (fun () ->
      m.Coherence.Backend.run (fun node -> Coherence.Dsm.unlock node 1))

let test_unaligned_access_rejected backend =
  let m = machine ~nprocs:1 ~pages:2 backend in
  let x = m.Coherence.Backend.alloc 16 in
  expect_invalid backend ~fragment:"unaligned" (fun () ->
      m.Coherence.Backend.run (fun node -> ignore (Coherence.Dsm.read_int node (x + 3))))

let test_private_address_rejected backend =
  let m = machine ~nprocs:1 ~pages:2 backend in
  expect_invalid backend ~fragment:"outside the shared segment" (fun () ->
      m.Coherence.Backend.run (fun node -> ignore (Coherence.Dsm.read_int node 64)))

let test_alloc_alignment backend =
  let m = machine ~nprocs:1 ~pages:8 backend in
  let a = m.Coherence.Backend.alloc 24 in
  let b = m.Coherence.Backend.alloc ~align:4096 8 in
  check Alcotest.int (backend ^ " page aligned") 0 (b mod 4096);
  check Alcotest.bool (backend ^ " disjoint") true (b >= a + 24)

let test_alloc_exhaustion backend =
  let m = machine ~nprocs:1 ~pages:1 backend in
  let who = if backend = "lrc" then "Cluster.alloc" else "Machine.alloc" in
  Alcotest.check_raises (backend ^ " exhausted")
    (Invalid_argument (who ^ ": shared segment exhausted"))
    (fun () -> ignore (m.Coherence.Backend.alloc 8192))

let test_node_malloc_follows_cluster_alloc backend =
  let m = machine ~nprocs:2 ~pages:8 backend in
  let a = m.Coherence.Backend.alloc 64 in
  let got = ref [] in
  let body node =
    let addr = Coherence.Dsm.malloc node 8 in
    got := addr :: !got;
    Coherence.Dsm.barrier node
  in
  m.Coherence.Backend.run body;
  match !got with
  | [ x; y ] ->
      check Alcotest.int (backend ^ " same SPMD address") x y;
      check Alcotest.bool (backend ^ " after pre-run alloc") true (x >= a + 64)
  | _ -> Alcotest.fail (backend ^ ": expected two allocations")

(* ------------------------------------------------------------------ *)
(* Synchronization-order record and replay (ROLT-style)                *)

let grant_order_of cluster =
  (* reconstruct per-lock grant order from the oracle trace's acquires *)
  Lrc.Cluster.trace cluster
  |> List.filter_map (function
       | proc, Racedetect.Oracle.Acquire lock -> Some (lock, proc)
       | _ -> None)

let test_record_replay () =
  let make_cluster ?(replay = None) ~cost () =
    let cfg =
      {
        Lrc.Config.default with
        record_sync = true;
        record_trace = true;
        replay;
      }
    in
    Lrc.Cluster.create ~cost ~cfg ~nprocs:4 ~pages:4 ()
  in
  let body counter node =
    let open Coherence.Dsm in
    barrier node;
    for _ = 1 to 5 do
      with_lock node 9 (fun () ->
          let v = read_int node counter in
          compute node (float_of_int (1000 * (pid node + 1)));
          write_int node counter (v + 1))
    done;
    barrier node
  in
  (* run 1 with the default cost model *)
  let c1 = make_cluster ~cost:Sim.Cost.default () in
  let counter1 = Lrc.Cluster.alloc c1 8 in
  Lrc.Cluster.run c1 ~body:(body counter1);
  let recorded = Option.get (Lrc.Cluster.sync_trace c1) in
  let order1 = grant_order_of c1 in
  (* run 2 with a very different cost model, replaying the order *)
  let cost2 = { Sim.Cost.default with msg_latency_ns = 900_000; proc_call_ns = 500.0 } in
  let c2 = make_cluster ~replay:(Some recorded) ~cost:cost2 () in
  let counter2 = Lrc.Cluster.alloc c2 8 in
  Lrc.Cluster.run c2 ~body:(body counter2);
  let order2 = grant_order_of c2 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "grant order reproduced under perturbed timing" order1 order2;
  (* and without replay the perturbed run may (and here does) differ *)
  let c3 = make_cluster ~cost:cost2 () in
  let counter3 = Lrc.Cluster.alloc c3 8 in
  Lrc.Cluster.run c3 ~body:(body counter3);
  ignore counter3

(* ------------------------------------------------------------------ *)
(* Determinism: same configuration, same everything                    *)

let test_deterministic_runs () =
  let run () =
    let cfg = Testutil.detect_cfg in
    let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
    let x = Lrc.Cluster.alloc cluster 64 in
    let body node =
      let open Coherence.Dsm in
      barrier node;
      with_lock node 2 (fun () ->
          let v = read_int node x in
          write_int node x (v + 1));
      write_int_at node x (1 + pid node) (pid node);
      barrier node
    in
    Lrc.Cluster.run cluster ~body;
    (Lrc.Cluster.sim_time cluster, Lrc.Cluster.trace cluster, Testutil.racy_addrs_of cluster)
  in
  let t1, trace1, races1 = run () in
  let t2, trace2, races2 = run () in
  check Alcotest.int "same simulated time" t1 t2;
  check Alcotest.bool "same trace" true (trace1 = trace2);
  check Testutil.addr_list "same races" races1 races2

let suite =
  [
    ( "lrc:coherence",
      List.concat_map
        (fun (name, protocol) ->
          [
            Alcotest.test_case (name ^ " barrier publishes") `Quick
              (test_barrier_publishes protocol);
            Alcotest.test_case (name ^ " lock counter") `Quick (test_lock_counter protocol);
          ])
        protocols
      @ [
          Alcotest.test_case "stale read before sync (LRC)" `Quick test_stale_read_before_sync;
          Alcotest.test_case "multi-writer diff merge" `Quick test_multi_writer_merges;
        ] );
    ( "lrc:lost-update-stress",
      List.concat_map
        (fun seed ->
          [
            Alcotest.test_case (Printf.sprintf "seed %d detect" seed) `Quick
              (test_lost_update_stress ~seed ~detect:true);
            Alcotest.test_case (Printf.sprintf "seed %d nodetect" seed) `Quick
              (test_lost_update_stress ~seed ~detect:false);
          ])
        [ 1; 4; 9; 27 ] );
    ( "lrc:api",
      [
        Alcotest.test_case "lock not reentrant" `Quick (on_every_backend test_lock_not_reentrant);
        Alcotest.test_case "unlock without lock" `Quick
          (on_every_backend test_unlock_without_lock);
        Alcotest.test_case "unaligned rejected" `Quick
          (on_every_backend test_unaligned_access_rejected);
        Alcotest.test_case "private rejected" `Quick
          (on_every_backend test_private_address_rejected);
        Alcotest.test_case "alloc alignment" `Quick (on_every_backend test_alloc_alignment);
        Alcotest.test_case "alloc exhaustion" `Quick (on_every_backend test_alloc_exhaustion);
        Alcotest.test_case "node malloc follows cluster" `Quick
          (on_every_backend test_node_malloc_follows_cluster_alloc);
      ] );
    ( "lrc:replay",
      [
        Alcotest.test_case "record/replay grant order" `Quick test_record_replay;
        Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
      ] );
  ]
