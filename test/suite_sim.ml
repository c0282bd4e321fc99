(* Unit and property tests for the simulation substrate: priority queue,
   RNG, engine, and network. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_ordering () =
  let q = Sim.Pqueue.create () in
  Sim.Pqueue.push q ~time:30 "c";
  Sim.Pqueue.push q ~time:10 "a";
  Sim.Pqueue.push q ~time:20 "b";
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "first" (Some (10, "a"))
    (Sim.Pqueue.pop q);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "second" (Some (20, "b"))
    (Sim.Pqueue.pop q);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "third" (Some (30, "c"))
    (Sim.Pqueue.pop q);
  check Alcotest.bool "empty" true (Sim.Pqueue.pop q = None)

let test_pqueue_tie_break () =
  (* same time: pops in insertion order, the determinism guarantee *)
  let q = Sim.Pqueue.create () in
  List.iter (fun v -> Sim.Pqueue.push q ~time:5 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> snd (Option.get (Sim.Pqueue.pop q))) in
  check (Alcotest.list Alcotest.int) "fifo at equal time" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_peek () =
  let q = Sim.Pqueue.create () in
  check (Alcotest.option Alcotest.int) "peek empty" None (Sim.Pqueue.peek_time q);
  Sim.Pqueue.push q ~time:42 ();
  check (Alcotest.option Alcotest.int) "peek" (Some 42) (Sim.Pqueue.peek_time q);
  check Alcotest.int "length" 1 (Sim.Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted by (time, insertion)" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Sim.Pqueue.create () in
      List.iteri (fun i time -> Sim.Pqueue.push q ~time i) times;
      let rec drain acc =
        match Sim.Pqueue.pop q with
        | None -> List.rev acc
        | Some (time, seq) -> drain ((time, seq) :: acc)
      in
      let popped = drain [] in
      let sorted = List.stable_sort (fun (t1, s1) (t2, s2) ->
          match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
          (List.mapi (fun i time -> (time, i)) times)
      in
      popped = sorted)

let test_pqueue_pop_clears_slot () =
  (* the vacated heap slot must not keep the popped value alive: a
     long-running engine pops millions of events whose payloads close
     over messages and pages *)
  let q = Sim.Pqueue.create () in
  let w = Weak.create 1 in
  let () =
    (* allocate in a local scope so no stack root survives below *)
    let v = Bytes.make 64 'x' in
    Weak.set w 0 (Some v);
    Sim.Pqueue.push q ~time:1 (Some v);
    Sim.Pqueue.push q ~time:2 None
  in
  ignore (Sim.Pqueue.pop q);
  Gc.full_major ();
  Gc.full_major ();
  check Alcotest.bool "popped value is collectable while the queue lives" true
    (Weak.get w 0 = None);
  check Alcotest.int "the other entry is still queued" 1 (Sim.Pqueue.length q)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:99 and b = Sim.Rng.create ~seed:99 in
  let xs = List.init 50 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Sim.Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Sim.Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create ~seed:5 in
  let a = Sim.Rng.split root and b = Sim.Rng.split root in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  check Alcotest.bool "distinct streams" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let rng = Sim.Rng.create ~seed:3 in
  let arr = Array.init 30 Fun.id in
  Sim.Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 30 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_advance_interleaves () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let mark pid = log := (pid, Sim.Engine.now engine) :: !log in
  let body_a _pid =
    Sim.Engine.advance 10;
    mark 0;
    Sim.Engine.advance 20;
    mark 0
  in
  let body_b _pid =
    Sim.Engine.advance 15;
    mark 1;
    Sim.Engine.advance 1;
    mark 1
  in
  ignore (Sim.Engine.spawn engine body_a);
  ignore (Sim.Engine.spawn engine body_b);
  Sim.Engine.run engine;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "interleaving by virtual time"
    [ (0, 10); (1, 15); (1, 16); (0, 30) ]
    (List.rev !log)

let test_engine_block_wake () =
  let engine = Sim.Engine.create () in
  let woke_at = ref (-1) in
  let sleeper_pid = ref (-1) in
  let sleeper _pid =
    Sim.Engine.block ~label:"test sleep";
    woke_at := Sim.Engine.now engine
  in
  let waker _pid =
    Sim.Engine.advance 500;
    Sim.Engine.wake engine !sleeper_pid
  in
  sleeper_pid := Sim.Engine.spawn engine sleeper;
  ignore (Sim.Engine.spawn engine waker);
  Sim.Engine.run engine;
  check Alcotest.int "woken at waker's time" 500 !woke_at

let test_engine_wake_before_block () =
  (* a wakeup that arrives before the block must not be lost *)
  let engine = Sim.Engine.create () in
  let finished = ref false in
  let pid = ref (-1) in
  let sleeper _pid =
    Sim.Engine.advance 100;
    Sim.Engine.block ~label:"late block";
    finished := true
  in
  let waker _pid = Sim.Engine.wake engine !pid in
  pid := Sim.Engine.spawn engine sleeper;
  ignore (Sim.Engine.spawn engine waker);
  Sim.Engine.run engine;
  check Alcotest.bool "sticky wakeup" true !finished

let test_engine_deadlock_detected () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"forever"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check Alcotest.bool "queue-drain diagnosis" false diagnosis.Sim.Engine.diag_stalled;
      check Alcotest.int "one live process" 1 diagnosis.Sim.Engine.diag_live;
      check Alcotest.bool "mentions label" true
        (Testutil.contains (Sim.Engine.diagnosis_to_string diagnosis) "forever")

let test_engine_deadlock_diagnostics () =
  (* registered subsystem reporters contribute lines to the diagnosis *)
  let engine = Sim.Engine.create () in
  Sim.Engine.add_diagnostic engine (fun () -> [ "subsystem: 3 requests stuck" ]);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"lost wakeup"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check (Alcotest.list Alcotest.string) "reporter lines"
        [ "subsystem: 3 requests stuck" ] diagnosis.Sim.Engine.diag_notes

let test_engine_stall_watchdog () =
  (* only thunks fire (a retransmission livelock): the watchdog must trip
     once the no-progress budget is exceeded *)
  let engine = Sim.Engine.create () in
  Sim.Engine.set_stall_budget engine (Some 1_000);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"starved"));
  let rec tick n = if n > 0 then Sim.Engine.schedule_after engine ~delay:100 (fun () -> tick (n - 1)) in
  Sim.Engine.schedule engine ~at:0 (fun () -> tick 100);
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected stall Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check Alcotest.bool "stalled diagnosis" true diagnosis.Sim.Engine.diag_stalled;
      check Alcotest.bool "within budget + one tick" true
        (diagnosis.Sim.Engine.diag_time <= 1_200));
  (* same run without live processes must NOT trip the watchdog *)
  let engine = Sim.Engine.create () in
  Sim.Engine.set_stall_budget engine (Some 1_000);
  let rec tick n = if n > 0 then Sim.Engine.schedule_after engine ~delay:100 (fun () -> tick (n - 1)) in
  Sim.Engine.schedule engine ~at:0 (fun () -> tick 100);
  Sim.Engine.run engine

let test_engine_progress_resets_watchdog () =
  (* a process that keeps advancing holds the watchdog off indefinitely *)
  let engine = Sim.Engine.create () in
  Sim.Engine.set_stall_budget engine (Some 1_000);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         for _ = 1 to 50 do
           Sim.Engine.advance 900
         done));
  Sim.Engine.run engine;
  check Alcotest.int "ran to completion" 45_000 (Sim.Engine.now engine)

let test_engine_many_procs () =
  (* the growable process table: spawn far past the initial capacity and
     wake by pid across the whole range *)
  let engine = Sim.Engine.create () in
  let n = 1_000 in
  let woken = Array.make n false in
  let pids =
    Array.init n (fun i ->
        Sim.Engine.spawn engine (fun _ ->
            Sim.Engine.block ~label:"mass";
            woken.(i) <- true))
  in
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance 10;
         Array.iter (fun pid -> Sim.Engine.wake engine pid) pids));
  Sim.Engine.run engine;
  check Alcotest.bool "all woken" true (Array.for_all Fun.id woken)

let test_engine_exception_propagates () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.spawn engine (fun _ -> failwith "boom"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> check Alcotest.string "payload" "boom" m

let test_engine_schedule_thunk () =
  let engine = Sim.Engine.create () in
  let fired = ref (-1) in
  Sim.Engine.schedule engine ~at:77 (fun () -> fired := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check Alcotest.int "thunk time" 77 !fired

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)

let test_net_latency_and_accounting () =
  let engine = Sim.Engine.create () in
  let cost = Sim.Cost.default in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine cost stats ~nodes:2 ~size_of:(fun _ -> 100) in
  let delivered_at = ref (-1) in
  Sim.Net.set_handler net ~node:1 (fun () -> delivered_at := Sim.Engine.now engine);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance 1000;
         Sim.Net.send net ~src:0 ~dst:1 ()));
  Sim.Engine.run engine;
  check Alcotest.int "latency model" (1000 + Sim.Cost.message_ns cost ~bytes:100) !delivered_at;
  check Alcotest.int "message counted" 1 stats.Sim.Stats.messages;
  check Alcotest.int "bytes counted" 100 stats.Sim.Stats.bytes

let test_net_fifo_same_size () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine Sim.Cost.default stats ~nodes:2 ~size_of:(fun _ -> 64) in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun v -> received := v :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) [ 1; 2; 3 ]));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_net_recv_blocking () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine Sim.Cost.default stats ~nodes:2 ~size_of:(fun _ -> 8) in
  let got = ref 0 in
  (* pid 0 = node 0 receiver; recv assumes pid = node id *)
  ignore (Sim.Engine.spawn engine (fun _ -> got := Sim.Net.recv net ~node:0));
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance 10;
         Sim.Net.send net ~src:1 ~dst:0 42));
  Sim.Engine.run engine;
  check Alcotest.int "received" 42 !got

(* ------------------------------------------------------------------ *)
(* Transport over a lossy wire                                         *)

let lossy_net ?(transport = Sim.Transport.default_config) ~plan ~seed ~nodes () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let root = Sim.Rng.create ~seed in
  let jitter_rng = Sim.Rng.split root in
  let fault_rng = Sim.Rng.split root in
  let net =
    Sim.Net.create ~rng:jitter_rng ~fault:plan ~fault_rng ~transport engine
      Sim.Cost.default stats ~nodes ~size_of:(fun _ -> 64)
  in
  (engine, stats, net)

let test_transport_delivers_under_loss () =
  let plan = { Sim.Fault.none with Sim.Fault.drop = 0.3; duplicate = 0.2; reorder = 0.3 } in
  let engine, stats, net = lossy_net ~plan ~seed:7 ~nodes:2 () in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun v -> received := v :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) (List.init 50 Fun.id)));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "exactly once, in order" (List.init 50 Fun.id)
    (List.rev !received);
  check Alcotest.bool "wire actually lossy" true (stats.Sim.Stats.frames_dropped > 0);
  check Alcotest.bool "retransmissions happened" true (stats.Sim.Stats.retransmits > 0)

let test_transport_partition_heals () =
  (* frames sent into a partition are retransmitted through after it lifts *)
  let plan =
    {
      Sim.Fault.none with
      Sim.Fault.partitions =
        [ { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = 30_000_000 } ];
    }
  in
  let engine, stats, net = lossy_net ~plan ~seed:11 ~nodes:2 () in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun v -> received := v :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) [ 1; 2; 3 ]));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "delivered after heal" [ 1; 2; 3 ] (List.rev !received);
  check Alcotest.bool "heal needed retransmits" true (stats.Sim.Stats.retransmits > 0)

let test_transport_retry_cap_diagnosed () =
  (* a permanently dead link exhausts the retry cap; the blocked receiver
     then surfaces as a structured deadlock diagnosis, not a livelock *)
  let plan =
    {
      Sim.Fault.none with
      Sim.Fault.partitions =
        [ { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = max_int } ];
    }
  in
  let engine, stats, net = lossy_net ~plan ~seed:13 ~nodes:2 () in
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  ignore (Sim.Engine.spawn engine (fun _ -> ignore (Sim.Net.recv net ~node:0)));
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance 10;
         Sim.Net.send net ~src:1 ~dst:0 42));
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      let text = Sim.Engine.diagnosis_to_string diagnosis in
      check Alcotest.bool "names the blocked receiver" true
        (Testutil.contains text "net recv at node 0");
      check Alcotest.bool "reports the failed link" true (Testutil.contains text "FAILED"));
  check Alcotest.int "link declared failed" 1 stats.Sim.Stats.link_failures;
  (match Sim.Net.transport net with
  | Some transport ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "failed link id" [ (1, 0) ]
        (Sim.Transport.failed_links transport)
  | None -> Alcotest.fail "transport expected")

let test_transport_charges_retransmit_bytes () =
  (* the same workload must cost more wire bytes at 30% drop than at 0% *)
  let run plan seed =
    let engine, stats, net = lossy_net ~plan ~seed ~nodes:2 () in
    Sim.Net.set_handler net ~node:1 (fun _ -> ());
    ignore
      (Sim.Engine.spawn engine (fun _ ->
           List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) (List.init 30 Fun.id)));
    Sim.Engine.run engine;
    stats
  in
  let clean = run Sim.Fault.none 3 in
  let lossy = run { Sim.Fault.none with Sim.Fault.drop = 0.3 } 3 in
  check Alcotest.bool "no retransmits on a clean wire" true
    (clean.Sim.Stats.retransmits = 0);
  check Alcotest.bool "retransmitted bytes charged" true
    (lossy.Sim.Stats.bytes > clean.Sim.Stats.bytes)

let prop_transport_exactly_once_fifo =
  (* the tentpole invariant: under an arbitrary seeded drop/dup/reorder
     plan, every link still delivers exactly once and in order *)
  QCheck.Test.make ~name:"transport: per-link FIFO + exactly-once under faults" ~count:60
    QCheck.(
      quad (int_bound 10_000) (int_bound 45 (* % *)) (int_bound 45) (1 -- 60))
    (fun (seed, drop_pct, dup_pct, n_msgs) ->
      let plan =
        {
          Sim.Fault.none with
          Sim.Fault.drop = float_of_int drop_pct /. 100.0;
          duplicate = float_of_int dup_pct /. 100.0;
          reorder = 0.3;
        }
      in
      let nodes = 3 in
      (* an effectively unbounded retry cap: the property is about the
         FIFO/exactly-once invariant, not the give-up policy, and at 45%
         drop the default cap of 20 is occasionally (and correctly)
         exhausted *)
      let transport =
        { Sim.Transport.default_config with Sim.Transport.max_retries = max_int }
      in
      let engine, stats, net = lossy_net ~transport ~plan ~seed ~nodes () in
      let received = Array.make (nodes * nodes) [] in
      for dst = 0 to nodes - 1 do
        Sim.Net.set_handler net ~node:dst (fun (src, v) ->
            let link = (src * nodes) + dst in
            received.(link) <- v :: received.(link))
      done;
      ignore
        (Sim.Engine.spawn engine (fun _ ->
             for v = 1 to n_msgs do
               (* every ordered pair of distinct nodes, interleaved *)
               for src = 0 to nodes - 1 do
                 for dst = 0 to nodes - 1 do
                   if src <> dst then Sim.Net.send net ~src ~dst (src, v)
                 done
               done
             done));
      Sim.Engine.run engine;
      let expected = List.init n_msgs (fun i -> i + 1) in
      let ok = ref (stats.Sim.Stats.link_failures = 0) in
      for src = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          if src <> dst && List.rev received.((src * nodes) + dst) <> expected then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "sim:pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
        Alcotest.test_case "tie-break fifo" `Quick test_pqueue_tie_break;
        Alcotest.test_case "peek/length" `Quick test_pqueue_peek;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        Alcotest.test_case "pop clears the vacated slot" `Quick test_pqueue_pop_clears_slot;
      ] );
    ( "sim:rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ] );
    ( "sim:engine",
      [
        Alcotest.test_case "virtual-time interleaving" `Quick test_engine_advance_interleaves;
        Alcotest.test_case "block/wake" `Quick test_engine_block_wake;
        Alcotest.test_case "wake before block" `Quick test_engine_wake_before_block;
        Alcotest.test_case "deadlock detected" `Quick test_engine_deadlock_detected;
        Alcotest.test_case "deadlock diagnostics" `Quick test_engine_deadlock_diagnostics;
        Alcotest.test_case "stall watchdog" `Quick test_engine_stall_watchdog;
        Alcotest.test_case "progress resets watchdog" `Quick
          test_engine_progress_resets_watchdog;
        Alcotest.test_case "growable proc table" `Quick test_engine_many_procs;
        Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
        Alcotest.test_case "scheduled thunk" `Quick test_engine_schedule_thunk;
      ] );
    ( "sim:net",
      [
        Alcotest.test_case "latency + accounting" `Quick test_net_latency_and_accounting;
        Alcotest.test_case "fifo same-size" `Quick test_net_fifo_same_size;
        Alcotest.test_case "blocking recv" `Quick test_net_recv_blocking;
      ] );
    ( "sim:transport",
      [
        Alcotest.test_case "delivers under loss" `Quick test_transport_delivers_under_loss;
        Alcotest.test_case "partition heals" `Quick test_transport_partition_heals;
        Alcotest.test_case "retry cap diagnosed" `Quick test_transport_retry_cap_diagnosed;
        Alcotest.test_case "retransmit bytes charged" `Quick
          test_transport_charges_retransmit_bytes;
        QCheck_alcotest.to_alcotest prop_transport_exactly_once_fifo;
      ] );
  ]
