(* cvm_race — command-line front end.

   Subcommands:
     run     run one application with online race detection and print the
             races, dynamic statistics, and (optionally) the slowdown
     hunt    the full section 6.1 flow: a detection run, then a replayed
             run with a watch list that maps each racy address to the
             source sites that touched it
     record  run with the deterministic trace recorder and save the
             binary event log
     replay  re-execute a recorded run and verify the event streams are
             identical (or pinpoint the first divergence); --log-only
             reconstructs the outcome from the log without re-executing
     trace   inspect a binary log: summary, per-tag statistics, or a
             Chrome trace-event JSON export
     table   regenerate one of the paper's tables/figures (see bench/ for
             the full harness)
     sweep   apps x processor-counts overhead sweep over --jobs domains
     analyze run only the static elimination pass: classification,
             redundant-check batching and lockset lint per application
     litmus  explore memory-model litmus tests under a protocol
     fuzz    differential fuzzing: seeded random programs with
             by-construction ground truth, detector vs oracle across
             every backend, mismatches shrunk to trace-file repros

   `run --trace-file FILE` executes an external per-proc access/sync
   stream (docs/FUZZING.md has the grammar) instead of a named app.
*)

open Cmdliner

let app_arg =
  let doc = "Application to run: fft, sor, tsp or water." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let app_or_trace_arg =
  let doc = "Application to run: fft, sor, tsp or water (or use $(b,--trace-file))." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let trace_file_arg =
  let doc =
    "Run a workload trace file (per-processor access/sync streams; grammar in \
     docs/FUZZING.md) instead of a named application. The processor count comes from the \
     file's $(b,procs) directive; $(b,--procs) is ignored."
  in
  Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)

(* Processor counts: zero or a negative count is a usage error, not a
   failure deep inside cluster creation. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let procs_arg =
  let doc = "Number of simulated processors." in
  Arg.(value & opt positive_int 8 & info [ "p"; "procs" ] ~docv:"N" ~doc)

let scale_arg =
  let doc =
    "Input scale: 'paper' (evaluation-sized), 'small' (seconds), or 'large' (the benchmark \
     pipeline's enlarged SOR/FFT/Water tier)."
  in
  Arg.(value
      & opt
          (enum
             [
               ("paper", Apps.Registry.Paper);
               ("small", Apps.Registry.Small);
               ("large", Apps.Registry.Large);
             ])
          Apps.Registry.Paper
      & info [ "scale" ] ~docv:"SCALE" ~doc)

let backend_arg =
  let backend_conv =
    let parse name =
      if Backends.known name then Ok name
      else
        Error
          (`Msg
            (Printf.sprintf "unknown backend %S (available: %s)" name
               (String.concat ", " Backends.all)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let doc =
    "Coherence backend: lrc (message-passing DSM), mesi (snooping bus, \
     write-invalidate) or dragon (snooping bus, write-update). $(b,--list-backends) \
     prints the registry."
  in
  Arg.(value & opt backend_conv "lrc" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let protocol_arg =
  let doc = "Coherence protocol: sw (single-writer), mw (multi-writer), hb (home-based), sc." in
  Arg.(value
      & opt (enum
            [ ("sw", Lrc.Config.Single_writer);
              ("mw", Lrc.Config.Multi_writer);
              ("hb", Lrc.Config.Home_based);
              ("sc", Lrc.Config.Seq_consistent);
            ]) Lrc.Config.Single_writer
      & info [ "protocol" ] ~docv:"PROTO" ~doc)

let no_detect_arg =
  let doc = "Disable instrumentation and race detection (baseline CVM)." in
  Arg.(value & flag & info [ "no-detect" ] ~doc)

let first_race_arg =
  let doc = "Report only the first racy barrier epoch (section 6.4)." in
  Arg.(value & flag & info [ "first-race-only" ] ~doc)

let diff_stores_arg =
  let doc =
    "With the multi-writer protocol, derive write bitmaps from diffs instead of store \
     instrumentation (section 6.5)."
  in
  Arg.(value & flag & info [ "stores-from-diffs" ] ~doc)

let gc_epochs_arg =
  let doc =
    "Interval garbage collection: every $(docv) barrier epochs, validate invalid pages \
     and reclaim unreachable diffs. Bounds diff storage on long runs; races and the \
     final memory image are unaffected."
  in
  Arg.(value & opt (some int) None & info [ "gc-epochs" ] ~docv:"K" ~doc)

let slowdown_arg =
  let doc = "Also run the uninstrumented baseline and report the slowdown." in
  Arg.(value & flag & info [ "slowdown" ] ~doc)

let oracle_arg =
  let doc = "Record the full access trace and cross-check against the offline oracle." in
  Arg.(value & flag & info [ "oracle" ] ~doc)

(* Lossy-network flags. Any nonzero fault probability implies the
   reliable transport; [--transport] runs it over a fault-free wire. *)

let drop_arg =
  let doc = "Per-frame wire drop probability (0.0-1.0). Implies the transport." in
  Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc)

let dup_arg =
  let doc = "Per-frame wire duplication probability (0.0-1.0). Implies the transport." in
  Arg.(value & opt float 0.0 & info [ "dup" ] ~docv:"P" ~doc)

let reorder_arg =
  let doc =
    "Per-frame reorder probability (0.0-1.0): a chosen frame is held back by a random \
     slice of the reorder window. Implies the transport."
  in
  Arg.(value & opt float 0.0 & info [ "reorder" ] ~docv:"P" ~doc)

let partition_arg =
  let doc =
    "One-shot link partition: frames between nodes $(i,A) and $(i,B) (both \
     directions) are dropped while simulated time is in [$(i,T0), $(i,T1)) \
     nanoseconds. Repeatable. Implies the transport."
  in
  Arg.(value & opt_all (t4 int int int int) [] & info [ "partition" ] ~docv:"A,B,T0,T1" ~doc)

let net_seed_arg =
  let doc = "Seed for the network RNG streams (jitter + faults); defaults to the run seed." in
  Arg.(value & opt (some int) None & info [ "net-seed" ] ~docv:"N" ~doc)

let watchdog_arg =
  let doc =
    "Deadlock watchdog: abort with a structured diagnosis if this many simulated \
     milliseconds pass without any process making progress."
  in
  Arg.(value & opt (some float) None & info [ "watchdog" ] ~docv:"MS" ~doc)

let max_retries_arg =
  let doc = "Transport retry cap per frame before a link is declared failed." in
  Arg.(value & opt (some int) None & info [ "max-retries" ] ~docv:"N" ~doc)

let transport_arg =
  let doc = "Run the reliable transport even over a fault-free wire." in
  Arg.(value & flag & info [ "transport" ] ~doc)

let jobs_arg =
  let doc =
    "Number of independent simulation runs to execute in parallel (worker domains). \
     Output is identical whatever $(docv) is; only wall-clock changes."
  in
  Arg.(value & opt int (Parallel.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let elide_arg =
  let doc =
    "Skip the runtime race check at sites the static MHP analysis proves race-free \
     (instrumentation elision). Race reports are unchanged; only the check cost drops."
  in
  Arg.(value & flag & info [ "elide" ] ~doc)

let ppf = Format.std_formatter

let config ~backend ~protocol ~no_detect ~first_race_only ~stores_from_diffs ~oracle
    ~gc_epochs ~elide =
  {
    Lrc.Config.default with
    backend;
    protocol;
    detect = not no_detect;
    first_race_only;
    stores_from_diffs;
    record_trace = oracle;
    gc_epochs;
    elide_sites = (if elide then Some [] else None);
  }

let net_config cfg ~drop ~dup ~reorder ~partitions ~net_seed ~watchdog_ms ~max_retries
    ~transport =
  let fault =
    {
      Sim.Fault.none with
      Sim.Fault.drop;
      duplicate = dup;
      reorder;
      partitions =
        List.map
          (fun (a, b, t0, t1) ->
            { Sim.Fault.p_a = a; p_b = b; p_from_ns = t0; p_until_ns = t1 })
          partitions;
    }
  in
  let transport_cfg =
    if transport || Sim.Fault.active fault then
      let base = Sim.Transport.default_config in
      Some
        (match max_retries with
        | Some n -> { base with Sim.Transport.max_retries = n }
        | None -> base)
    else None
  in
  {
    cfg with
    Lrc.Config.fault;
    transport = transport_cfg;
    net_seed;
    watchdog_ns =
      (match watchdog_ms with Some ms -> Some (int_of_float (ms *. 1e6)) | None -> None);
  }

let print_outcome (outcome : Core.Driver.outcome) =
  Format.fprintf ppf "== %s on %d processors (detect %s) ==@." outcome.Core.Driver.app_name
    outcome.Core.Driver.nprocs
    (if outcome.Core.Driver.detect then "on" else "off");
  Format.fprintf ppf "simulated time: %.3f ms@."
    (float_of_int outcome.Core.Driver.sim_time_ns /. 1e6);
  Core.Report.races ~symtab:outcome.Core.Driver.symtab ppf outcome.Core.Driver.races;
  Format.fprintf ppf "@[<v 2>statistics:@ %a@]@." Sim.Stats.pp outcome.Core.Driver.stats

(* resolve the run target: a registry application, or a trace-file
   workload (which fixes its own processor count) *)
let resolve_workload ~scale ~procs app_name trace_file =
  match (trace_file, app_name) with
  | Some path, _ -> (
      if app_name <> None then begin
        Format.eprintf "cannot give both APP and --trace-file@.";
        exit 2
      end;
      try
        let program = Workload.Trace_file.parse_file path in
        (Workload.Program.to_app program, program.Workload.Program.nprocs)
      with
      | Workload.Trace_file.Parse_error { line; msg } ->
          if line > 0 then Format.eprintf "%s:%d: %s@." path line msg
          else Format.eprintf "%s: %s@." path msg;
          exit 2
      | Sys_error msg ->
          Format.eprintf "%s@." msg;
          exit 2)
  | None, Some name -> (Apps.Registry.make ~scale name, procs)
  | None, None ->
      Format.eprintf "give an APP name or --trace-file FILE@.";
      exit 2

let run_command =
  let run app_name trace_file procs scale backend protocol no_detect first_race_only
      stores_from_diffs gc_epochs elide slowdown oracle drop dup reorder
      partitions net_seed watchdog_ms max_retries transport =
    let app, procs = resolve_workload ~scale ~procs app_name trace_file in
    let cfg =
      config ~backend ~protocol ~no_detect ~first_race_only ~stores_from_diffs ~oracle
        ~gc_epochs ~elide
    in
    let cfg =
      net_config cfg ~drop ~dup ~reorder ~partitions ~net_seed ~watchdog_ms ~max_retries
        ~transport
    in
    if Sim.Fault.active cfg.Lrc.Config.fault then
      Format.fprintf ppf "wire faults: %s@." (Sim.Fault.describe cfg.Lrc.Config.fault);
    if slowdown then begin
      let sd = Core.Driver.measure_slowdown ~cfg ~app ~nprocs:procs () in
      print_outcome sd.Core.Driver.instrumented;
      Format.fprintf ppf "baseline: %.3f ms, slowdown factor: %.2f@."
        (float_of_int sd.Core.Driver.base.Core.Driver.sim_time_ns /. 1e6)
        sd.Core.Driver.factor
    end
    else begin
      let outcome = Core.Driver.run ~cfg ~app ~nprocs:procs () in
      print_outcome outcome;
      if oracle then begin
        let expected = Core.Driver.oracle_addrs outcome in
        let detected = Core.Driver.racy_addrs outcome in
        if expected = detected then Format.fprintf ppf "oracle cross-check: agreement@."
        else begin
          Format.fprintf ppf "oracle cross-check: MISMATCH (%d vs %d addresses)@."
            (List.length detected) (List.length expected);
          exit 1
        end
      end
    end
  in
  let run app_name trace_file procs scale backend protocol no_detect first_race_only
      stores_from_diffs gc_epochs elide slowdown oracle drop dup reorder
      partitions net_seed watchdog_ms max_retries transport =
    try
      run app_name trace_file procs scale backend protocol no_detect first_race_only
        stores_from_diffs gc_epochs elide slowdown oracle drop dup reorder
        partitions net_seed watchdog_ms max_retries transport
    with Sim.Engine.Deadlock diagnosis ->
      Format.fprintf ppf "DEADLOCK@.%s@." (Sim.Engine.diagnosis_to_string diagnosis);
      exit 2
  in
  let term =
    Term.(const run $ app_or_trace_arg $ trace_file_arg $ procs_arg $ scale_arg
        $ backend_arg $ protocol_arg $ no_detect_arg $ first_race_arg $ diff_stores_arg
        $ gc_epochs_arg $ elide_arg $ slowdown_arg $ oracle_arg $ drop_arg
        $ dup_arg $ reorder_arg $ partition_arg $ net_seed_arg $ watchdog_arg
        $ max_retries_arg $ transport_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run an application (or a $(b,--trace-file) workload) under online race detection.")
    term

let hunt_command =
  let hunt app_name procs scale =
    let app = Apps.Registry.make ~scale app_name in
    Format.fprintf ppf "run 1: detecting races and recording synchronization order...@.";
    let cfg1 = { Lrc.Config.default with record_sync = true } in
    let run1 = Core.Driver.run ~cfg:cfg1 ~app ~nprocs:procs () in
    let racy = Core.Driver.racy_addrs run1 in
    Core.Report.races ~symtab:run1.Core.Driver.symtab ppf run1.Core.Driver.races;
    if racy = [] then Format.fprintf ppf "nothing to hunt.@."
    else begin
      Format.fprintf ppf
        "run 2: replaying the recorded order with a watch on %d address(es)...@."
        (List.length racy);
      let cfg2 = { Lrc.Config.default with replay = run1.Core.Driver.sync_trace } in
      let run2 = Core.Driver.run ~cfg:cfg2 ~app ~nprocs:procs ~watch_addrs:racy () in
      Format.fprintf ppf "source sites involved in the races:@.";
      List.iter
        (fun hit -> Format.fprintf ppf "  %a@." Instrument.Watch.pp_hit hit)
        run2.Core.Driver.watch_hits
    end
  in
  let term = Term.(const hunt $ app_arg $ procs_arg $ scale_arg) in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Two-run race hunt (section 6.1): detect races, then replay under the recorded \
          synchronization order to identify the source sites.")
    term

let record_command =
  let out_arg =
    let doc = "Output file for the binary trace log." in
    Arg.(value & opt string "run.cvmt" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let record app_name procs scale backend protocol no_detect first_race_only
      stores_from_diffs gc_epochs elide drop dup reorder partitions net_seed
      watchdog_ms max_retries transport out =
    let cfg =
      config ~backend ~protocol ~no_detect ~first_race_only ~stores_from_diffs
        ~oracle:false ~gc_epochs ~elide
    in
    let cfg =
      net_config cfg ~drop ~dup ~reorder ~partitions ~net_seed ~watchdog_ms ~max_retries
        ~transport
    in
    if Sim.Fault.active cfg.Lrc.Config.fault then
      Format.fprintf ppf "wire faults: %s@." (Sim.Fault.describe cfg.Lrc.Config.fault);
    let outcome, log = Core.Trace_run.record ~cfg ~app_name ~scale ~nprocs:procs () in
    Core.Trace_run.save out log;
    print_outcome outcome;
    let decoded = Trace.Codec.decode log in
    Format.fprintf ppf "trace: %d event(s), %d bytes -> %s@."
      (Array.length decoded.Trace.Codec.events)
      (String.length log) out
  in
  let record app_name procs scale backend protocol no_detect first_race_only
      stores_from_diffs gc_epochs elide drop dup reorder partitions net_seed
      watchdog_ms max_retries transport out =
    try
      record app_name procs scale backend protocol no_detect first_race_only
        stores_from_diffs gc_epochs elide drop dup reorder partitions net_seed
        watchdog_ms max_retries transport out
    with Sim.Engine.Deadlock diagnosis ->
      Format.fprintf ppf "DEADLOCK@.%s@." (Sim.Engine.diagnosis_to_string diagnosis);
      exit 2
  in
  let term =
    Term.(const record $ app_arg $ procs_arg $ scale_arg $ backend_arg $ protocol_arg
        $ no_detect_arg $ first_race_arg $ diff_stores_arg $ gc_epochs_arg $ elide_arg
        $ drop_arg $ dup_arg $ reorder_arg $ partition_arg $ net_seed_arg
        $ watchdog_arg $ max_retries_arg $ transport_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run an application with the deterministic trace recorder and save the binary \
          event log (replay it with $(b,cvm_race replay)).")
    term

let log_arg =
  let doc = "Binary trace log produced by $(b,cvm_race record)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc)

let replay_command =
  let log_only_arg =
    let doc =
      "Do not re-execute: reconstruct the race set and final memory checksum from the \
       log alone."
    in
    Arg.(value & flag & info [ "log-only" ] ~doc)
  in
  let replay log_path log_only =
    let log = Core.Trace_run.load log_path in
    if log_only then begin
      let decoded = Trace.Codec.decode log in
      let m = decoded.Trace.Codec.meta in
      Format.fprintf ppf "== %s on %d processors (%s, from log only) ==@."
        m.Trace.Codec.m_app m.Trace.Codec.m_nprocs m.Trace.Codec.m_protocol;
      Core.Report.races ppf (Trace.Replay.races_of_log decoded);
      (match Trace.Replay.checksum_of_log decoded with
      | Some c -> Format.fprintf ppf "memory checksum: %x@." c
      | None -> Format.fprintf ppf "memory checksum: (log has no run-end event)@.");
      match Trace.Replay.sim_time_of_log decoded with
      | Some ns -> Format.fprintf ppf "simulated time: %.3f ms@." (float_of_int ns /. 1e6)
      | None -> ()
    end
    else begin
      let result = Core.Trace_run.replay log in
      let m = result.Core.Trace_run.rr_meta in
      Format.fprintf ppf "== replaying %s on %d processors (%s, scale %s) ==@."
        m.Trace.Codec.m_app m.Trace.Codec.m_nprocs m.Trace.Codec.m_protocol
        m.Trace.Codec.m_scale;
      match result.Core.Trace_run.rr_divergence with
      | Some d ->
          Format.fprintf ppf "%a@." Trace.Replay.pp_divergence d;
          exit 1
      | None ->
          if not (Core.Trace_run.clean result) then begin
            Format.fprintf ppf
              "event streams identical but outcome mismatch (races %s, checksum %s)@."
              (if result.Core.Trace_run.rr_races_match then "match" else "DIFFER")
              (if result.Core.Trace_run.rr_checksum_match then "matches" else "DIFFERS");
            exit 1
          end;
          print_outcome result.Core.Trace_run.rr_outcome;
          Format.fprintf ppf
            "replay verified: event streams, race set and memory checksum identical@."
    end
  in
  let replay log_path log_only =
    try replay log_path log_only with
    | Sim.Engine.Deadlock diagnosis ->
        Format.fprintf ppf "DEADLOCK@.%s@." (Sim.Engine.diagnosis_to_string diagnosis);
        exit 2
    | Trace.Codec.Corrupt msg ->
        Format.fprintf ppf "corrupt trace log: %s@." msg;
        exit 3
  in
  let term = Term.(const replay $ log_arg $ log_only_arg) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded run and verify both event streams are identical; on a \
          mismatch, report the first divergence and exit nonzero.")
    term

let trace_command =
  let chrome_arg =
    let doc = "Write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print per-tag event counts and encoded bytes." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let events_arg =
    let doc = "Print the first $(docv) decoded events." in
    Arg.(value & opt int 0 & info [ "events" ] ~docv:"N" ~doc)
  in
  let trace log_path chrome stats events =
    let log = Core.Trace_run.load log_path in
    let decoded = Trace.Codec.decode log in
    let m = decoded.Trace.Codec.meta in
    Format.fprintf ppf
      "%s: %s on %d processors, protocol %s, scale %s, seed %d, %d event(s), %d bytes@."
      log_path m.Trace.Codec.m_app m.Trace.Codec.m_nprocs m.Trace.Codec.m_protocol
      m.Trace.Codec.m_scale m.Trace.Codec.m_seed
      (Array.length decoded.Trace.Codec.events)
      (String.length log);
    if m.Trace.Codec.m_drop > 0.0 || m.Trace.Codec.m_dup > 0.0
       || m.Trace.Codec.m_reorder > 0.0
       || m.Trace.Codec.m_partitions <> []
    then
      Format.fprintf ppf
        "faults: drop %.1f%%, dup %.1f%%, reorder %.1f%%, %d partition window(s)@."
        (100. *. m.Trace.Codec.m_drop)
        (100. *. m.Trace.Codec.m_dup)
        (100. *. m.Trace.Codec.m_reorder)
        (List.length m.Trace.Codec.m_partitions);
    if stats then begin
      Format.fprintf ppf "%-16s %10s %12s@." "tag" "count" "bytes";
      List.iter
        (fun (s : Trace.Replay.tag_stats) ->
          Format.fprintf ppf "%-16s %10d %12d@." s.Trace.Replay.ts_tag
            s.Trace.Replay.ts_count s.Trace.Replay.ts_bytes)
        (Trace.Replay.per_tag_stats decoded)
    end;
    if events > 0 then
      Array.iteri
        (fun i (time, event) ->
          if i < events then
            Format.fprintf ppf "%8d  %10d ns  %a@." i time Trace.Event.pp event)
        decoded.Trace.Codec.events;
    match chrome with
    | Some out ->
        Core.Trace_run.save out (Trace.Chrome.export decoded);
        Format.fprintf ppf "chrome trace -> %s@." out
    | None -> ()
  in
  let trace log_path chrome stats events =
    try trace log_path chrome stats events
    with Trace.Codec.Corrupt msg ->
      Format.fprintf ppf "corrupt trace log: %s@." msg;
      exit 3
  in
  let term = Term.(const trace $ log_arg $ chrome_arg $ stats_arg $ events_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Inspect a binary trace log: run summary, per-tag statistics ($(b,--stats)), \
          the first events ($(b,--events)), or a Chrome trace-event export \
          ($(b,--chrome)).")
    term

type experiment = Table1 | Table2 | Table3 | Figure3 | Figure4 | Figure5 | Protocols | Faults

let experiments =
  [
    ("table1", Table1);
    ("table2", Table2);
    ("table3", Table3);
    ("figure3", Figure3);
    ("figure4", Figure4);
    ("figure5", Figure5);
    ("protocols", Protocols);
    ("faults", Faults);
  ]

let table_command =
  let which_arg =
    let doc = Printf.sprintf "Which experiment: %s." (Arg.doc_alts_enum experiments) in
    Arg.(required & pos 0 (some (enum experiments)) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let table which scale backend jobs =
    (* figure5, protocols and faults are DSM-mechanism experiments
       (LRC-internal protocol variants, wire faults); --backend does not
       apply to them *)
    (match which with
    | (Figure5 | Protocols | Faults) when backend <> "lrc" ->
        let name = fst (List.find (fun (_, e) -> e = which) experiments) in
        Format.fprintf ppf "note: %s is DSM-specific; --backend %s ignored@." name backend
    | _ -> ());
    match which with
    | Table1 -> Core.Report.table1 ppf (Core.Experiments.table1 ~scale ~backend ~jobs ())
    | Table2 -> Core.Report.table2 ppf (Core.Experiments.table2 ~scale ~jobs ())
    | Table3 -> Core.Report.table3 ppf (Core.Experiments.table3 ~scale ~backend ~jobs ())
    | Figure3 -> Core.Report.figure3 ppf (Core.Experiments.figure3 ~scale ~backend ~jobs ())
    | Figure4 -> Core.Report.figure4 ppf (Core.Experiments.figure4 ~scale ~backend ~jobs ())
    | Figure5 -> Core.Report.figure5 ppf (Core.Experiments.figure5_both ~jobs ())
    | Protocols ->
        Core.Report.protocols ppf (Core.Experiments.protocol_comparison_all ~scale ~jobs ())
    | Faults -> Core.Report.faults ppf (Core.Experiments.fault_sweep_all ~scale ~jobs ())
  in
  let term = Term.(const table $ which_arg $ scale_arg $ backend_arg $ jobs_arg) in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate one of the paper's tables or figures.") term

let sweep_command =
  let apps_arg =
    let doc = "Applications to sweep (default: the paper's four)." in
    Arg.(value & pos_all string [] & info [] ~docv:"APP" ~doc)
  in
  let procs_list_arg =
    let doc = "Comma-separated processor counts." in
    Arg.(value
        & opt (list positive_int) [ 2; 4; 8 ]
        & info [ "p"; "procs" ] ~docv:"N,N,..." ~doc)
  in
  let sweep apps procs scale backend jobs =
    let names = match apps with [] -> Apps.Registry.all_names | names -> names in
    Core.Report.figure4 ppf
      (Core.Experiments.figure4 ~scale ~procs ~names ~backend ~jobs ())
  in
  let term =
    Term.(const sweep $ apps_arg $ procs_list_arg $ scale_arg $ backend_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep applications across processor counts (instrumented vs baseline, with \
          overheads), fanning the independent runs over $(b,--jobs) domains. The full \
          timed harness with JSON output lives in bench/main.exe.")
    term

(* --- analyze: static pass, MHP pair report, JSON and baseline modes --- *)

let json_of_warning (w : Instrument.Static_analysis.warning) =
  Bench_json.Obj
    [
      ("proc", Bench_json.String w.Instrument.Static_analysis.w_proc);
      ("site", Bench_json.String w.Instrument.Static_analysis.w_site);
      ( "kind",
        Bench_json.String
          (match w.Instrument.Static_analysis.w_kind with
          | Instrument.Binary.Load -> "load"
          | Instrument.Binary.Store -> "store") );
      ("region", Bench_json.String w.Instrument.Static_analysis.w_region);
      ("other_site", Bench_json.String w.Instrument.Static_analysis.w_other_site);
      ( "other_locks",
        Bench_json.List
          (List.map (fun l -> Bench_json.Int l) w.Instrument.Static_analysis.w_other_locks)
      );
    ]

let json_of_side (s : Instrument.Mhp.side) =
  Bench_json.Obj
    [
      ("site", Bench_json.String s.Instrument.Mhp.s_site);
      ( "kind",
        Bench_json.String
          (match s.Instrument.Mhp.s_kind with
          | Instrument.Binary.Load -> "load"
          | Instrument.Binary.Store -> "store") );
      ("locks", Bench_json.List (List.map (fun l -> Bench_json.Int l) s.Instrument.Mhp.s_locks));
    ]

let json_of_mhp (r : Instrument.Mhp.report) =
  let sites ss = Bench_json.List (List.map (fun s -> Bench_json.String s) ss) in
  Bench_json.Obj
    [
      ( "pairs",
        Bench_json.List
          (List.map
             (fun (p : Instrument.Mhp.pair) ->
               Bench_json.Obj
                 [
                   ("proc", Bench_json.String p.Instrument.Mhp.p_proc);
                   ( "severity",
                     Bench_json.String
                       (Instrument.Mhp.severity_name p.Instrument.Mhp.p_severity) );
                   ("region", Bench_json.String p.Instrument.Mhp.p_region);
                   ( "phases",
                     Bench_json.List
                       (List.map (fun ph -> Bench_json.Int ph) p.Instrument.Mhp.p_phases) );
                   ("a", json_of_side p.Instrument.Mhp.p_a);
                   ("b", json_of_side p.Instrument.Mhp.p_b);
                 ])
             r.Instrument.Mhp.pairs) );
      ("may_race_sites", sites r.Instrument.Mhp.may_race_sites);
      ("race_free_sites", sites r.Instrument.Mhp.race_free_sites);
      ("shared_sites", sites r.Instrument.Mhp.shared_sites);
    ]

let json_of_analysis ~name (result : Instrument.Static_analysis.result) mhp =
  let c = result.Instrument.Static_analysis.classification in
  Bench_json.Obj
    [
      ("app", Bench_json.String name);
      ( "classification",
        Bench_json.Obj
          [
            ("stack", Bench_json.Int c.Instrument.Static_analysis.stack);
            ("static", Bench_json.Int c.Instrument.Static_analysis.static_data);
            ("proven_private", Bench_json.Int c.Instrument.Static_analysis.proven_private);
            ("library", Bench_json.Int c.Instrument.Static_analysis.library);
            ("cvm", Bench_json.Int c.Instrument.Static_analysis.cvm);
            ("instrumented", Bench_json.Int c.Instrument.Static_analysis.instrumented);
          ] );
      ("batched_checks", Bench_json.Int result.Instrument.Static_analysis.batched_checks);
      ( "check_cost_scale",
        Bench_json.Float result.Instrument.Static_analysis.check_cost_scale );
      ( "warnings",
        Bench_json.List
          (List.map json_of_warning result.Instrument.Static_analysis.warnings) );
      ("mhp", match mhp with Some r -> json_of_mhp r | None -> Bench_json.Null);
    ]

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev (List.filter (fun l -> String.trim l <> "") !lines))

let analyze_command =
  let app_opt_arg =
    let doc = "Application to analyze: fft, sor, tsp, water or lu." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let all_arg =
    let doc = "Analyze every application, including the extra workloads." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let mhp_arg =
    let doc =
      "Also run the whole-program may-happen-in-parallel analysis and print the pairwise \
       static race report (witness region, phases and locksets per pair)."
    in
    Arg.(value & flag & info [ "mhp" ] ~doc)
  in
  let json_arg =
    let doc = "Write the full analysis (classification, warnings, MHP report) as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let doc =
      "Baseline mode for CI: compare the emitted warning lines against $(docv) (one \
       warning per line) and exit nonzero on any drift — a new warning, a vanished \
       warning, or a changed message."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"FILE" ~doc)
  in
  let analyze app_name all scale mhp json expect =
    let names =
      match (app_name, all) with
      | _, true -> Apps.Registry.extended_names
      | Some name, false -> [ name ]
      | None, false -> Apps.Registry.all_names
    in
    let any_warnings = ref false in
    let warning_lines = ref [] in
    let json_apps = ref [] in
    List.iter
      (fun name ->
        let app = Apps.Registry.make ~scale name in
        let binary = app.Apps.App.binary () in
        let result = Instrument.Static_analysis.analyze binary in
        Core.Report.analysis ppf ~name:app.Apps.App.name result;
        if result.Instrument.Static_analysis.warnings <> [] then any_warnings := true;
        List.iter
          (fun w ->
            warning_lines :=
              Format.asprintf "%s: %a" app.Apps.App.name
                Instrument.Static_analysis.pp_warning w
              :: !warning_lines)
          result.Instrument.Static_analysis.warnings;
        let report =
          if mhp || json <> None then Some (Instrument.Mhp.analyze binary) else None
        in
        (match report with
        | Some r when mhp ->
            Format.fprintf ppf "@[<v 2>%s may-happen-in-parallel:@ %a@]@.@."
              app.Apps.App.name Instrument.Mhp.pp_report r
        | _ -> ());
        if json <> None then
          json_apps := json_of_analysis ~name:app.Apps.App.name result report :: !json_apps)
      names;
    let warning_lines = List.rev !warning_lines in
    (match json with
    | Some path ->
        Bench_json.to_file path
          (Bench_json.Obj
             [
               ("schema", Bench_json.String "cvm-race-analyze/1");
               ("apps", Bench_json.List (List.rev !json_apps));
             ]);
        Format.fprintf ppf "analysis JSON -> %s@." path
    | None -> ());
    let drifted =
      match expect with
      | None -> false
      | Some path ->
          let expected = read_lines path in
          let missing = List.filter (fun l -> not (List.mem l warning_lines)) expected in
          let unexpected = List.filter (fun l -> not (List.mem l expected)) warning_lines in
          List.iter (fun l -> Format.fprintf ppf "MISSING (expected, not emitted): %s@." l) missing;
          List.iter (fun l -> Format.fprintf ppf "UNEXPECTED (emitted, not in baseline): %s@." l) unexpected;
          if missing = [] && unexpected = [] then begin
            Format.fprintf ppf "warning set matches baseline %s (%d line(s))@." path
              (List.length expected);
            false
          end
          else true
    in
    if !any_warnings && expect = None then
      Format.fprintf ppf
        "note: lint findings are static suspicions; `cvm_race run` confirms them dynamically@.";
    if drifted then exit 1
  in
  let term =
    Term.(const analyze $ app_opt_arg $ all_arg $ scale_arg $ mhp_arg $ json_arg
        $ expect_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static passes alone: per-application access classification, \
          redundant-check batching, lockset lint warnings, and (with $(b,--mhp)) the \
          whole-program may-happen-in-parallel pair report. $(b,--expect) compares the \
          warning lines to a checked-in baseline and exits nonzero on drift; \
          $(b,--json) writes the full report for tooling.")
    term

let litmus_command =
  let litmus protocol =
    List.iter
      (fun test ->
        let outcomes = Litmus.explore ~protocol test in
        Format.fprintf ppf "%-16s: %s@." test.Litmus.name
          (String.concat " | "
             (List.map
                (fun registers ->
                  match registers with
                  | [] -> "(no registers)"
                  | _ ->
                      String.concat ","
                        (List.map (fun (r, v) -> Printf.sprintf "%s=%d" r v) registers))
                outcomes)))
      Litmus.all
  in
  let term = Term.(const litmus $ protocol_arg) in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Explore the observable outcomes of classic memory-model litmus tests (MP, SB, \
          coherence) under the chosen protocol.")
    term

let fuzz_command =
  let seed_arg =
    let doc = "Base seed; program $(i,i) is drawn from (seed, i)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Number of programs to generate and check." in
    Arg.(value & opt int 50 & info [ "count" ] ~docv:"N" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report mismatches as generated, without minimizing them." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let repro_dir_arg =
    let doc = "Write each mismatch's (minimized) program as a trace file under $(docv)." in
    Arg.(value & opt (some string) None & info [ "repro-dir" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Write the fuzz report (generator statistics and mismatches) as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let backends_arg =
    let doc = "Comma-separated backends to cross-check (default: every registered one)." in
    Arg.(value & opt (list string) Workload.Harness.all_backends
        & info [ "backends" ] ~docv:"B,B,..." ~doc)
  in
  let fuzz seed count no_shrink repro_dir json backends =
    List.iter
      (fun b ->
        if not (Backends.known b) then begin
          Format.eprintf "unknown backend %S (available: %s)@." b
            (String.concat ", " Backends.all);
          exit 2
        end)
      backends;
    let report =
      Workload.Harness.fuzz ~backends ?repro_dir ~seed ~count ~shrink:(not no_shrink) ()
    in
    Format.fprintf ppf
      "fuzz seed %d: %d program(s), %d event(s), %d race(s) planted, %d found, %d clean \
       program(s), %d shrink step(s)@."
      seed report.Workload.Harness.programs report.Workload.Harness.events
      report.Workload.Harness.planted report.Workload.Harness.found
      report.Workload.Harness.clean_programs report.Workload.Harness.shrink_steps;
    List.iter
      (fun (m : Workload.Harness.mismatch) ->
        Format.fprintf ppf "MISMATCH [%s] %s@.%a@."
          (Workload.Harness.kind_name m.Workload.Harness.kind)
          m.Workload.Harness.detail Workload.Program.pp m.Workload.Harness.program)
      report.Workload.Harness.mismatches;
    List.iter
      (fun path -> Format.fprintf ppf "repro -> %s@." path)
      report.Workload.Harness.repro_files;
    (match json with
    | Some path ->
        let mismatch_json (m : Workload.Harness.mismatch) =
          Bench_json.Obj
            [
              ("kind", Bench_json.String (Workload.Harness.kind_name m.Workload.Harness.kind));
              ("detail", Bench_json.String m.Workload.Harness.detail);
              ( "program",
                Bench_json.String
                  (Workload.Trace_file.to_string m.Workload.Harness.program) );
              ("events", Bench_json.Int (Workload.Program.size m.Workload.Harness.program));
            ]
        in
        Bench_json.to_file path
          (Bench_json.Obj
             [
               ("schema", Bench_json.String "cvm-race-fuzz/1");
               ("seed", Bench_json.Int seed);
               ("count", Bench_json.Int count);
               ("backends", Bench_json.List (List.map (fun b -> Bench_json.String b) backends));
               ("programs", Bench_json.Int report.Workload.Harness.programs);
               ("events", Bench_json.Int report.Workload.Harness.events);
               ("races_planted", Bench_json.Int report.Workload.Harness.planted);
               ("races_found", Bench_json.Int report.Workload.Harness.found);
               ("clean_programs", Bench_json.Int report.Workload.Harness.clean_programs);
               ("shrink_steps", Bench_json.Int report.Workload.Harness.shrink_steps);
               ( "mismatches",
                 Bench_json.List
                   (List.map mismatch_json report.Workload.Harness.mismatches) );
               ( "repro_files",
                 Bench_json.List
                   (List.map
                      (fun p -> Bench_json.String p)
                      report.Workload.Harness.repro_files) );
             ]);
        Format.fprintf ppf "fuzz report JSON -> %s@." path
    | None -> ());
    if report.Workload.Harness.mismatches <> [] then exit 1
  in
  let term =
    Term.(const fuzz $ seed_arg $ count_arg $ no_shrink_arg $ repro_dir_arg $ json_arg
        $ backends_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random concurrent programs with \
          by-construction ground-truth racy sets, run the online detector (with and \
          without elision) against the offline oracle across every backend, and shrink \
          any mismatch to a minimized trace-file repro. Exits nonzero on any mismatch.")
    term

let () =
  (* registry listing; handled before Cmdliner so it works from any
     subcommand position *)
  if Array.exists (String.equal "--list-backends") Sys.argv then begin
    List.iter
      (fun name ->
        Printf.printf "%-8s %s\n" name
          (Option.value ~default:"" (Backends.describe name)))
      Backends.all;
    exit 0
  end;
  let doc = "online data-race detection via coherency guarantees (OSDI '96 reproduction)" in
  let info = Cmd.info "cvm_race" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_command;
            hunt_command;
            record_command;
            replay_command;
            trace_command;
            table_command;
            sweep_command;
            analyze_command;
            litmus_command;
            fuzz_command;
          ]))
