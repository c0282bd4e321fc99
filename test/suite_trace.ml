(* The record/replay subsystem: codec round-trips, recording is
   behavior-neutral, a pristine log replays cleanly for every app on a
   lossy wire, a single mutated event is pinpointed by index, and the
   race set + memory checksum reconstruct from the log alone. *)

let check = Alcotest.check

let sample_meta =
  {
    Trace.Codec.m_app = "sor";
    m_scale = "small";
    m_nprocs = 4;
    m_protocol = "single-writer";
    m_detect = true;
    m_first_race_only = false;
    m_stores_from_diffs = false;
    m_seed = 42;
    m_net_seed = Some 7;
    m_drop = 0.2;
    m_dup = 0.05;
    m_reorder = 0.1;
    m_reorder_window_ns = 400_000;
    m_spike = 0.01;
    m_spike_ns = 2_000_000;
    m_partitions = [ (0, 1, 5_000, 10_000); (2, 3, 0, max_int) ];
    m_transport =
      Some { Trace.Codec.v1_transport_defaults with Trace.Codec.tm_max_retries = 5 };
    m_watchdog_ns = Some 200_000_000;
    m_gc_epochs = Some 2;
    m_elide = true;
    m_backend = "lrc";
    m_cc_line_bytes = 64;
    m_cc_sets = 64;
    m_cc_ways = 2;
    m_sim_jobs = Some 4;
  }

(* ------------------------------------------------------------------ *)
(* Codec round-trip (property)                                          *)

let gen_event : Trace.Event.t QCheck.Gen.t =
  let open QCheck.Gen in
  let proc = int_bound 7 in
  let small = int_bound 1_000_000 in
  let kind_name = oneofl [ "page-req"; "diff-req"; "lock"; "barrier"; "x" ] in
  let pages = list_size (int_bound 4) (int_bound 255) in
  let vc = list_size (int_range 1 4) (int_bound 1000) >|= Array.of_list in
  let iid = map2 (fun proc index -> { Proto.Interval.proc; index }) proc (int_bound 1000) in
  let akind = oneofl [ Proto.Race.Read; Proto.Race.Write ] in
  let race =
    map2
      (fun (addr, page, word) ((a, ka), (b, kb), epoch) ->
        { Proto.Race.addr; page; word; first = (a, ka); second = (b, kb); epoch })
      (triple small (int_bound 255) (int_bound 511))
      (triple (pair iid akind) (pair iid akind) (int_bound 40))
  in
  let outcome =
    oneof
      [
        map2
          (fun copies extra_delay_ns -> Trace.Event.Passed { copies; extra_delay_ns })
          (int_range 1 3) small;
        return Trace.Event.Dropped;
        return Trace.Event.Blackholed;
      ]
  in
  oneof
    [
      map2
        (fun (src, dst) (kind, bytes) -> Trace.Event.Msg_send { src; dst; kind; bytes })
        (pair proc proc) (pair kind_name small);
      map2
        (fun (src, dst) (kind, bytes) -> Trace.Event.Msg_deliver { src; dst; kind; bytes })
        (pair proc proc) (pair kind_name small);
      map3 (fun src dst outcome -> Trace.Event.Fault { src; dst; outcome }) proc proc outcome;
      map3 (fun a b up -> Trace.Event.Partition { a; b; up }) proc proc bool;
      map3 (fun src dst seq -> Trace.Event.Retransmit { src; dst; seq }) proc proc small;
      map3 (fun src dst cum -> Trace.Event.Ack { src; dst; cum }) proc proc small;
      map2 (fun src dst -> Trace.Event.Link_failure { src; dst }) proc proc;
      map2 (fun proc label -> Trace.Event.Proc_block { proc; label }) proc kind_name;
      map (fun proc -> Trace.Event.Proc_resume { proc }) proc;
      map (fun proc -> Trace.Event.Proc_finish { proc }) proc;
      map3 (fun proc page kind -> Trace.Event.Page_fault { proc; page; kind }) proc
        (int_bound 255) akind;
      map3 (fun proc page count -> Trace.Event.Diff_fetch { proc; page; count }) proc
        (int_bound 255) small;
      map3 (fun proc page words -> Trace.Event.Diff_apply { proc; page; words }) proc
        (int_bound 255) small;
      map3 (fun proc lock vc -> Trace.Event.Lock_acquire { proc; lock; vc }) proc small vc;
      map3 (fun proc lock vc -> Trace.Event.Lock_release { proc; lock; vc }) proc small vc;
      map2 (fun proc epoch -> Trace.Event.Barrier_enter { proc; epoch }) proc small;
      map3 (fun proc epoch vc -> Trace.Event.Barrier_leave { proc; epoch; vc }) proc small vc;
      map3 (fun proc index epoch -> Trace.Event.Interval_open { proc; index; epoch }) proc
        small small;
      map3
        (fun (proc, index) epoch (write_pages, read_pages) ->
          Trace.Event.Interval_close { proc; index; epoch; write_pages; read_pages })
        (pair proc small) small (pair pages pages);
      map3 (fun a b pages -> Trace.Event.Check_entry { a; b; pages }) iid iid pages;
      map (fun race -> Trace.Event.Race race) race;
      map3
        (fun checksum sim_time_ns races -> Trace.Event.Run_end { checksum; sim_time_ns; races })
        (oneof [ small; return max_int; return min_int ])
        small (int_bound 100);
    ]

let arb_stream =
  QCheck.make
    ~print:(fun evs ->
      String.concat "; " (List.map (fun (t, e) -> Printf.sprintf "%d:%s" t (Trace.Event.to_string e)) evs))
    QCheck.Gen.(
      list_size (int_bound 40) (pair (int_bound 1_000_000) gen_event)
      >|= fun evs ->
      (* monotone absolute times, as the cluster produces them *)
      let t = ref 0 in
      List.map (fun (dt, e) -> t := !t + dt; (!t, e)) evs)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode (encode stream) = stream" ~count:200 arb_stream
    (fun stream ->
      let events = Array.of_list stream in
      let decoded = Trace.Codec.decode (Trace.Codec.encode sample_meta events) in
      decoded.Trace.Codec.meta = sample_meta
      && Array.length decoded.Trace.Codec.events = Array.length events
      && Array.for_all2
           (fun (t1, e1) (t2, e2) -> t1 = t2 && Trace.Event.equal e1 e2)
           decoded.Trace.Codec.events events)

let test_codec_rejects_garbage () =
  let corrupt s = match Trace.Codec.decode s with
    | _ -> false
    | exception Trace.Codec.Corrupt _ -> true
  in
  check Alcotest.bool "bad magic" true (corrupt "JUNKJUNKJUNK");
  check Alcotest.bool "empty" true (corrupt "");
  let log = Trace.Codec.encode sample_meta [| (0, Trace.Event.Proc_finish { proc = 0 }) |] in
  let truncated = String.sub log 0 (String.length log - 1) in
  check Alcotest.bool "truncated record" true (corrupt truncated);
  let wrong_version = Bytes.of_string log in
  Bytes.set wrong_version 4 '\xff';
  check Alcotest.bool "unsupported version" true (corrupt (Bytes.to_string wrong_version))

(* ------------------------------------------------------------------ *)
(* Recording must not perturb the run                                   *)

let lossy_cfg =
  {
    Lrc.Config.default with
    Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
    transport = Some Sim.Transport.default_config;
  }

let test_recording_is_behavior_neutral () =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  let plain = Core.Driver.run ~cfg:lossy_cfg ~app ~nprocs:4 () in
  let traced, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  check Alcotest.int "same simulated time" plain.Core.Driver.sim_time_ns
    traced.Core.Driver.sim_time_ns;
  check Alcotest.int "same memory checksum" plain.Core.Driver.mem_checksum
    traced.Core.Driver.mem_checksum;
  check Alcotest.bool "same races" true (plain.Core.Driver.races = traced.Core.Driver.races);
  check Alcotest.bool "log is non-trivial" true
    (Array.length (Trace.Codec.decode log).Trace.Codec.events > 100)

(* ------------------------------------------------------------------ *)
(* Record -> replay identity for every app under 20% drop              *)

let test_record_replay_identity name () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:name ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let r = Core.Trace_run.replay log in
  (match r.Core.Trace_run.rr_divergence with
  | None -> ()
  | Some d -> Alcotest.failf "unexpected divergence: %s" (Format.asprintf "%a" Trace.Replay.pp_divergence d));
  check Alcotest.bool "race set matches log" true r.Core.Trace_run.rr_races_match;
  check Alcotest.bool "memory checksum matches log" true r.Core.Trace_run.rr_checksum_match;
  check Alcotest.bool "clean" true (Core.Trace_run.clean r)

(* ------------------------------------------------------------------ *)
(* First divergence: one mutated event is pinpointed by its index       *)

let test_first_divergence_pinpointed () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  let events = Array.copy decoded.Trace.Codec.events in
  let k = Array.length events / 3 in
  let time, _ = events.(k) in
  (* an event the live run can never produce at this point *)
  events.(k) <- (time, Trace.Event.Link_failure { src = 6; dst = 7 });
  let mutated = Trace.Codec.encode decoded.Trace.Codec.meta events in
  let r = Core.Trace_run.replay mutated in
  match r.Core.Trace_run.rr_divergence with
  | None -> Alcotest.fail "mutation not detected"
  | Some d ->
      check Alcotest.int "first divergence at the mutated index" k d.Trace.Replay.d_index;
      (match d.Trace.Replay.d_expected with
      | Some (_, e) ->
          check Alcotest.bool "expected side is the mutated event" true
            (Trace.Event.equal e (Trace.Event.Link_failure { src = 6; dst = 7 }))
      | None -> Alcotest.fail "expected event missing from the report");
      check Alcotest.bool "actual side reported" true (d.Trace.Replay.d_actual <> None);
      let report = Format.asprintf "%a" Trace.Replay.pp_divergence d in
      check Alcotest.bool "report names the event index" true
        (Testutil.contains report (string_of_int k))

let test_truncated_live_stream_diverges () =
  (* verifier finish: a live run that ends short of the log is flagged *)
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  let v = Trace.Replay.create decoded in
  let stop = Array.length decoded.Trace.Codec.events - 5 in
  Array.iteri
    (fun i (time, e) -> if i < stop then Trace.Replay.check v ~time e)
    decoded.Trace.Codec.events;
  match Trace.Replay.finish v with
  | None -> Alcotest.fail "short stream not flagged"
  | Some d ->
      check Alcotest.int "divergence at the first unmatched event" stop d.Trace.Replay.d_index;
      check Alcotest.bool "no actual event" true (d.Trace.Replay.d_actual = None)

(* A log this build cannot re-execute is refused before anything runs,
   with a Corrupt error naming the metadata field: an unknown app,
   scale, protocol or backend, or the v5 schedule marker of the removed
   sharded engine. The marker still decodes, so log-only reading works. *)
let test_replay_rejects_unreplayable_meta () =
  let _, log =
    Core.Trace_run.record ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:2 ()
  in
  let decoded = Trace.Codec.decode log in
  let m = decoded.Trace.Codec.meta and events = decoded.Trace.Codec.events in
  check (Alcotest.option Alcotest.int) "record writes no schedule marker" None
    m.Trace.Codec.m_sim_jobs;
  let rejected field meta =
    match Core.Trace_run.replay (Trace.Codec.encode meta events) with
    | _ -> Alcotest.failf "replay ran a log with a bad %s" field
    | exception Trace.Codec.Corrupt msg ->
        check Alcotest.bool (field ^ " named in the error") true
          (Testutil.contains msg field)
  in
  rejected "m_app" { m with Trace.Codec.m_app = "sox" };
  rejected "m_scale" { m with Trace.Codec.m_scale = "smoll" };
  rejected "m_protocol" { m with Trace.Codec.m_protocol = "single-reader" };
  rejected "m_backend" { m with Trace.Codec.m_backend = "msi" };
  let sharded = { m with Trace.Codec.m_sim_jobs = Some 1 } in
  rejected "m_sim_jobs" sharded;
  let read_back = Trace.Codec.decode (Trace.Codec.encode sharded events) in
  check Alcotest.bool "a marked log still reads log-only" true
    (Trace.Replay.checksum_of_log read_back = Trace.Replay.checksum_of_log decoded)

(* ------------------------------------------------------------------ *)
(* Log-only reconstruction: race set and checksum without re-executing  *)

let test_log_only_reconstruction () =
  (* a racy body so the log actually carries Race events *)
  let cfg = { Testutil.detect_cfg with Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.15 };
              transport = Some Sim.Transport.default_config } in
  let meta = Core.Trace_run.meta_of ~app_name:"custom" ~scale:Apps.Registry.Small ~nprocs:4 cfg in
  let recorder = Trace.Sink.recorder meta in
  let cfg = { cfg with Lrc.Config.tracer = Some (Trace.Sink.sink recorder) } in
  let cluster = Lrc.Cluster.create ~cfg ~nprocs:4 ~pages:4 () in
  let racy = Lrc.Cluster.alloc cluster 8 in
  Lrc.Cluster.run cluster ~body:(fun node ->
      let open Coherence.Dsm in
      barrier node;
      if pid node = 0 then write_int node racy 1;
      if pid node = 3 then ignore (read_int node racy);
      barrier node);
  let live = Proto.Race.dedup (Lrc.Cluster.races cluster) in
  check Alcotest.bool "the body races" true (live <> []);
  (* Run_end is the driver's job; emit it here the same way *)
  Trace.Sink.emit (Trace.Sink.sink recorder)
    ~time:(Lrc.Cluster.sim_time cluster)
    (Trace.Event.Run_end
       {
         checksum = Lrc.Cluster.memory_checksum cluster;
         sim_time_ns = Lrc.Cluster.sim_time cluster;
         races = List.length live;
       });
  let decoded = Trace.Codec.decode (Trace.Sink.contents recorder) in
  let from_log = Trace.Replay.races_of_log decoded in
  check Alcotest.int "same race count from log alone" (List.length live)
    (List.length from_log);
  check Alcotest.bool "same races from log alone" true
    (List.for_all2 Proto.Race.equal live from_log);
  check
    (Alcotest.option Alcotest.int)
    "checksum from log alone"
    (Some (Lrc.Cluster.memory_checksum cluster))
    (Trace.Replay.checksum_of_log decoded);
  check
    (Alcotest.option Alcotest.int)
    "sim time from log alone"
    (Some (Lrc.Cluster.sim_time cluster))
    (Trace.Replay.sim_time_of_log decoded);
  let stats = Trace.Replay.per_tag_stats decoded in
  let total = List.fold_left (fun acc s -> acc + s.Trace.Replay.ts_count) 0 stats in
  check Alcotest.int "stats cover every event" (Array.length decoded.Trace.Codec.events) total

(* ------------------------------------------------------------------ *)
(* Meta completeness: every config knob that changes the simulation is
   in the log, so replay can never silently run a different config.
   The gc-epochs case is the regression that motivated format v2: the
   cadence was missing from the meta, so a --gc-epochs recording
   replayed with GC off and diverged. *)

let test_gc_epochs_record_replay () =
  let cfg =
    {
      Lrc.Config.default with
      Lrc.Config.protocol = Lrc.Config.Multi_writer;
      gc_epochs = Some 2;
    }
  in
  let _, log =
    Core.Trace_run.record ~cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  check
    (Alcotest.option Alcotest.int)
    "GC cadence recorded in the meta" (Some 2)
    decoded.Trace.Codec.meta.Trace.Codec.m_gc_epochs;
  let r = Core.Trace_run.replay log in
  (match r.Core.Trace_run.rr_divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "gc-epochs recording diverged on replay: %s"
        (Format.asprintf "%a" Trace.Replay.pp_divergence d));
  check Alcotest.bool "gc-epochs replay clean" true (Core.Trace_run.clean r)

let test_tuned_transport_record_replay () =
  let tuned =
    {
      Sim.Transport.initial_rto_ns = 2_500_000;
      max_rto_ns = 40_000_000;
      max_retries = 7;
      header_bytes = 20;
      ack_bytes = 48;
    }
  in
  let cfg =
    {
      Lrc.Config.default with
      Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
      transport = Some tuned;
    }
  in
  let _, log =
    Core.Trace_run.record ~cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let m = (Trace.Codec.decode log).Trace.Codec.meta in
  (match m.Trace.Codec.m_transport with
  | None -> Alcotest.fail "transport config missing from the meta"
  | Some tm ->
      check Alcotest.int "initial RTO recorded" 2_500_000 tm.Trace.Codec.tm_initial_rto_ns;
      check Alcotest.int "RTO ceiling recorded" 40_000_000 tm.Trace.Codec.tm_max_rto_ns;
      check Alcotest.int "retry cap recorded" 7 tm.Trace.Codec.tm_max_retries;
      check Alcotest.int "header bytes recorded" 20 tm.Trace.Codec.tm_header_bytes;
      check Alcotest.int "ack bytes recorded" 48 tm.Trace.Codec.tm_ack_bytes);
  let r = Core.Trace_run.replay log in
  check Alcotest.bool "tuned-transport replay clean" true (Core.Trace_run.clean r)

(* Format v3 appends the instrumentation-elision flag: a log recorded
   with --elide must replay with the same derived elide set, and an
   elide-off log must decode with the flag unset. *)

let test_elide_record_replay () =
  let cfg = { Lrc.Config.default with Lrc.Config.elide_sites = Some [] } in
  let outcome, log =
    Core.Trace_run.record ~cfg ~app_name:"water" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  check Alcotest.bool "elision was active during recording" true
    (outcome.Core.Driver.stats.Sim.Stats.elided_checks > 0);
  let m = (Trace.Codec.decode log).Trace.Codec.meta in
  check Alcotest.bool "elide flag recorded in the meta" true m.Trace.Codec.m_elide;
  let r = Core.Trace_run.replay log in
  check Alcotest.bool "elided recording replays clean" true (Core.Trace_run.clean r);
  check Alcotest.bool "replay re-derived the elide set" true
    (r.Core.Trace_run.rr_outcome.Core.Driver.stats.Sim.Stats.elided_checks
    = outcome.Core.Driver.stats.Sim.Stats.elided_checks);
  (* and a plain recording says elide off *)
  let _, plain_log =
    Core.Trace_run.record ~app_name:"water" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  check Alcotest.bool "plain recording has the flag unset" false
    (Trace.Codec.decode plain_log).Trace.Codec.meta.Trace.Codec.m_elide

(* The live transport defaults must equal the constants frozen into the
   codec for format-v1 logs: if a default is ever tuned, the codec needs
   a new format version (and this pin updated deliberately). *)

let test_live_transport_defaults_still_frozen () =
  let live = Sim.Transport.default_config in
  let frozen = Trace.Codec.v1_transport_defaults in
  check Alcotest.int "initial_rto_ns" frozen.Trace.Codec.tm_initial_rto_ns
    live.Sim.Transport.initial_rto_ns;
  check Alcotest.int "max_rto_ns" frozen.Trace.Codec.tm_max_rto_ns live.Sim.Transport.max_rto_ns;
  check Alcotest.int "max_retries" frozen.Trace.Codec.tm_max_retries
    live.Sim.Transport.max_retries;
  check Alcotest.int "header_bytes" frozen.Trace.Codec.tm_header_bytes
    live.Sim.Transport.header_bytes;
  check Alcotest.int "ack_bytes" frozen.Trace.Codec.tm_ack_bytes live.Sim.Transport.ack_bytes;
  (* the frozen literals themselves, spelled out: changing either side
     must be a conscious act *)
  check Alcotest.int "frozen initial_rto_ns literal" 1_000_000
    frozen.Trace.Codec.tm_initial_rto_ns;
  check Alcotest.int "frozen max_rto_ns literal" 16_000_000 frozen.Trace.Codec.tm_max_rto_ns;
  check Alcotest.int "frozen max_retries literal" 20 frozen.Trace.Codec.tm_max_retries;
  check Alcotest.int "frozen header_bytes literal" 12 frozen.Trace.Codec.tm_header_bytes;
  check Alcotest.int "frozen ack_bytes literal" 32 frozen.Trace.Codec.tm_ack_bytes

(* `dune runtest` runs with the test directory as cwd; `dune exec
   test/test_main.exe` runs from the workspace root *)
let golden_file name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

let test_v1_log_decodes_with_frozen_defaults () =
  (* the checked-in pre-optimization logs are format v1: no GC cadence
     existed when they were recorded, and their transport ran the
     defaults frozen in the codec — decoding must say so, not guess
     from today's defaults *)
  let decoded = Trace.Codec.decode (Core.Trace_run.load (golden_file "pre_opt_sor_drop.cvmt")) in
  let m = decoded.Trace.Codec.meta in
  check (Alcotest.option Alcotest.int) "v1 log has no GC cadence" None
    m.Trace.Codec.m_gc_epochs;
  (match m.Trace.Codec.m_transport with
  | None -> Alcotest.fail "lossy v1 log should carry a transport config"
  | Some tm ->
      check Alcotest.int "v1 frozen initial RTO"
        Trace.Codec.v1_transport_defaults.Trace.Codec.tm_initial_rto_ns
        tm.Trace.Codec.tm_initial_rto_ns;
      check Alcotest.int "v1 frozen header bytes"
        Trace.Codec.v1_transport_defaults.Trace.Codec.tm_header_bytes
        tm.Trace.Codec.tm_header_bytes)

let test_version_window_messages () =
  let msg_of s = match Trace.Codec.decode s with
    | _ -> "decoded successfully"
    | exception Trace.Codec.Corrupt msg -> msg
  in
  let log = Trace.Codec.encode sample_meta [| (0, Trace.Event.Proc_finish { proc = 0 }) |] in
  let with_version v =
    let b = Bytes.of_string log in
    Bytes.set b 4 (Char.chr v);
    Bytes.to_string b
  in
  let newer = msg_of (with_version (Trace.Codec.version + 1)) in
  check Alcotest.bool "future version says the log is too new" true
    (Testutil.contains newer "newer");
  let older = msg_of (with_version 0) in
  check Alcotest.bool "prehistoric version says the log is too old" true
    (Testutil.contains older "older")

(* ------------------------------------------------------------------ *)
(* Chrome export smoke                                                  *)

let test_chrome_export () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"fft" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let json = Trace.Chrome.export (Trace.Codec.decode log) in
  check Alcotest.bool "is a JSON array" true
    (String.length json > 2 && json.[0] = '[' && Testutil.contains json "]");
  check Alcotest.bool "names every processor track" true
    (Testutil.contains json "proc 0" && Testutil.contains json "proc 3");
  check Alcotest.bool "has begin slices" true (Testutil.contains json {|"ph":"B"|});
  check Alcotest.bool "has end slices" true (Testutil.contains json {|"ph":"E"|});
  check Alcotest.bool "has instants" true (Testutil.contains json {|"ph":"i"|});
  (* every B on a tid has a matching E: count them *)
  let count needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length json - n do
      if String.sub json i n = needle then incr total
    done;
    !total
  in
  check Alcotest.int "slices balanced" (count {|"ph":"B"|}) (count {|"ph":"E"|})

let suite =
  [
    ( "trace:codec",
      [
        QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        Alcotest.test_case "corrupt logs rejected" `Quick test_codec_rejects_garbage;
      ] );
    ( "trace:replay",
      [
        Alcotest.test_case "recording is behavior-neutral" `Quick
          test_recording_is_behavior_neutral;
        Alcotest.test_case "record->replay: sor" `Quick (test_record_replay_identity "sor");
        Alcotest.test_case "record->replay: fft" `Quick (test_record_replay_identity "fft");
        Alcotest.test_case "record->replay: tsp" `Quick (test_record_replay_identity "tsp");
        Alcotest.test_case "record->replay: water" `Quick (test_record_replay_identity "water");
        Alcotest.test_case "record->replay: lu" `Quick (test_record_replay_identity "lu");
        Alcotest.test_case "mutated event pinpointed" `Quick test_first_divergence_pinpointed;
        Alcotest.test_case "short live stream flagged" `Quick
          test_truncated_live_stream_diverges;
      ] );
    ( "trace:meta",
      [
        Alcotest.test_case "gc-epochs recorded and replayed" `Quick
          test_gc_epochs_record_replay;
        Alcotest.test_case "tuned transport recorded and replayed" `Quick
          test_tuned_transport_record_replay;
        Alcotest.test_case "elide flag recorded and replayed" `Quick
          test_elide_record_replay;
        Alcotest.test_case "live transport defaults match frozen v1" `Quick
          test_live_transport_defaults_still_frozen;
        Alcotest.test_case "v1 log decodes with frozen defaults" `Quick
          test_v1_log_decodes_with_frozen_defaults;
        Alcotest.test_case "version window messages" `Quick test_version_window_messages;
        Alcotest.test_case "unreplayable metadata rejected" `Quick
          test_replay_rejects_unreplayable_meta;
      ] );
    ( "trace:offline",
      [
        Alcotest.test_case "race set + checksum from log alone" `Quick
          test_log_only_reconstruction;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
      ] );
  ]
