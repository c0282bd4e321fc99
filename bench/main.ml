(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks for the constant-time
   building blocks and an ablation for the section 6.5 optimization.

     dune exec bench/main.exe            -- everything, paper scale
     dune exec bench/main.exe -- table1  -- one experiment
     dune exec bench/main.exe -- --small all   -- reduced inputs (CI-sized)
     dune exec bench/main.exe -- sweep --json out.json   -- machine-readable
     dune exec bench/main.exe -- --jobs 4 sweep   -- fan runs over 4 domains

   Every experiment is a fan-out of independent simulation runs, so the
   harness runs them on a Parallel.Pool ([--jobs N], default the host's
   recommended domain count). Results are harvested in submission order
   and all rendering happens on the main domain, so the report and the
   JSON are identical whatever [--jobs] is; only the wall-clock and GC
   numbers (real measurements) move.

   Absolute numbers come from the simulator's calibrated cost model
   (DESIGN.md section 4); the comparison targets are the *shapes* reported
   in the paper, quoted under each table.

   With [--json FILE] the harness also writes a machine-readable record of
   the run: one entry per (app, nprocs, detect) sweep point with wall-clock
   (monotonic), simulated time, GC allocation counters and wire totals,
   plus the wall-clock of every table/figure section that ran. The schema
   is documented in docs/BENCH.md; bench/compare.exe diffs two such files
   and fails on regression. *)

let ppf = Format.std_formatter

let section_walls : (string * float) list ref = ref []

let current_section = ref ""

let section title =
  current_section := title;
  Format.fprintf ppf "@.=== %s ===@.@." title

(* Wall-clock via the monotonic clock (CLOCK_MONOTONIC under the hood):
   NTP steps and leap smearing cannot corrupt the JSON numbers. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let wall f =
  let t0 = now_s () in
  let result = f () in
  let dt = now_s () -. t0 in
  if !current_section <> "" then section_walls := (!current_section, dt) :: !section_walls;
  Format.fprintf ppf "(%.1fs)@." dt;
  result

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the operations the paper argues are cheap *)

let micro_tests () =
  let open Bechamel in
  let nprocs = 8 in
  let vc_a = Proto.Vclock.create nprocs and vc_b = Proto.Vclock.create nprocs in
  Array.iteri (fun i _ -> vc_a.(i) <- i * 3) vc_a;
  Array.iteri (fun i _ -> vc_b.(i) <- (i * 2) + 1) vc_b;
  let words = 512 in
  let bitmap_a = Mem.Bitmap.create words and bitmap_b = Mem.Bitmap.create words in
  List.iter (fun i -> Mem.Bitmap.set bitmap_a ((i * 7) mod words)) (List.init 64 Fun.id);
  List.iter (fun i -> Mem.Bitmap.set bitmap_b ((i * 11) mod words)) (List.init 64 Fun.id);
  let page_size = 4096 and word_size = 8 in
  let twin = Mem.Page.create ~page_size ~word_size in
  let current = Mem.Page.create ~page_size ~word_size in
  for i = 0 to 63 do
    Mem.Page.set_int64 current (i * 8) (Int64.of_int i)
  done;
  let diff = Mem.Diff.create ~page:0 ~twin ~current in
  let target = Mem.Page.create ~page_size ~word_size in
  (* a synthetic barrier epoch: 8 procs x 8 intervals, cross-proc concurrent *)
  let epoch_intervals =
    List.concat_map
      (fun proc ->
        List.map
          (fun k ->
            let index = k + 1 in
            let vc = Proto.Vclock.create nprocs in
            Proto.Vclock.set vc proc index;
            let interval = Proto.Interval.create ~proc ~index ~vc ~epoch:0 in
            Proto.Interval.add_write_page interval (proc mod 3);
            Proto.Interval.add_read_page interval ((proc + 1) mod 3);
            interval.Proto.Interval.closed <- true;
            interval)
          (List.init 8 Fun.id))
      (List.init nprocs Fun.id)
  in
  let first = List.hd epoch_intervals and tenth = List.nth epoch_intervals 9 in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"vclock-compare"
        (Staged.stage (fun () -> Proto.Vclock.concurrent vc_a vc_b));
      Test.make ~name:"interval-precedes"
        (Staged.stage (fun () -> Proto.Interval.precedes first tenth));
      Test.make ~name:"bitmap-intersect"
        (Staged.stage (fun () -> Mem.Bitmap.intersects bitmap_a bitmap_b));
      Test.make ~name:"bitmap-racy-words"
        (Staged.stage (fun () -> Mem.Bitmap.inter_indices bitmap_a bitmap_b));
      Test.make ~name:"diff-create"
        (Staged.stage (fun () -> Mem.Diff.create ~page:0 ~twin ~current));
      Test.make ~name:"diff-apply" (Staged.stage (fun () -> Mem.Diff.apply diff target));
      Test.make ~name:"concurrent-pairs-64"
        (Staged.stage (fun () -> Racedetect.Detector.concurrent_pairs epoch_intervals));
    ]

let run_micro () =
  let open Bechamel in
  section "Micro-benchmarks (Bechamel, real ns on this host)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (estimate :: _) -> Format.fprintf ppf "%-40s %12.1f ns/run@." name estimate
      | _ -> Format.fprintf ppf "%-40s %12s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)

let scale = ref Apps.Registry.Paper

(* Coherence backend for the tables/figures and the sweep; the
   separation experiment always runs all three. *)
let backend = ref "lrc"

(* Set once during flag parsing, before any pool exists; worker domains
   only ever read it. *)
let jobs = ref (Parallel.Pool.default_jobs ())

let scale_name () =
  match !scale with
  | Apps.Registry.Paper -> "paper"
  | Apps.Registry.Small -> "small"
  | Apps.Registry.Large -> "large"

let run_table1 () =
  section "Table 1";
  wall (fun () ->
      Core.Report.table1 ppf
        (Core.Experiments.table1 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_table2 () =
  section "Table 2";
  wall (fun () -> Core.Report.table2 ppf (Core.Experiments.table2 ~scale:!scale ~jobs:!jobs ()))

let run_table3 () =
  section "Table 3";
  wall (fun () ->
      Core.Report.table3 ppf
        (Core.Experiments.table3 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_figure3 () =
  section "Figure 3";
  wall (fun () ->
      Core.Report.figure3 ppf
        (Core.Experiments.figure3 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_figure4 () =
  section "Figure 4";
  wall (fun () ->
      (* TSP's branch-and-bound tree is badly load-imbalanced at 2
         processors, which makes the full-scale point very slow to
         simulate; sweep it from 4 as the paper's own TSP curve is the
         noisiest of the four. *)
      let names = [ "fft"; "sor"; "water" ] in
      let rows =
        Core.Experiments.figure4 ~scale:!scale ~names ~backend:!backend ~jobs:!jobs ()
      in
      let tsp =
        Core.Experiments.figure4 ~scale:!scale ~procs:[ 4; 8 ] ~names:[ "tsp" ]
          ~backend:!backend ~jobs:!jobs ()
      in
      Core.Report.figure4 ppf (rows @ tsp))

let run_figure5 () =
  section "Figure 5";
  wall (fun () -> Core.Report.figure5 ppf (Core.Experiments.figure5_both ~jobs:!jobs ()))

let run_ablation () =
  section "Ablation: stores from diffs (section 6.5)";
  wall (fun () ->
      Core.Report.ablation ppf
        (Core.Experiments.stores_from_diffs_ablation_all ~scale:!scale ~jobs:!jobs
           [ "sor"; "water" ]))

let run_retention () =
  section "Ablation: single-run site retention (section 6.1)";
  wall (fun () ->
      Core.Report.retention ppf
        (Core.Experiments.site_retention_ablation_all ~scale:!scale ~jobs:!jobs
           [ "tsp"; "water" ]))

let run_protocols () =
  section "Protocol comparison (single-writer vs multi-writer vs home-based)";
  wall (fun () ->
      Core.Report.protocols ppf
        (Core.Experiments.protocol_comparison_all ~scale:!scale ~jobs:!jobs ()))

let run_faults () =
  section "Fault sweep: report stability over a lossy wire";
  wall (fun () ->
      Core.Report.faults ppf (Core.Experiments.fault_sweep_all ~scale:!scale ~jobs:!jobs ()))

(* ------------------------------------------------------------------ *)
(* The machine-readable sweep: one simulated run per (app, nprocs,
   detect) point, timed and bracketed by [Gc.quick_stat] so allocation
   pressure is part of the record. The measurement itself is
   [Core.Experiments.sweep_point] (self-contained, silent), so any pool
   domain can run it; rendering happens here on the main domain, in
   submission order. Under [--jobs > 1] the GC deltas bill only the
   running domain's minor heap but share the major heap with concurrent
   points, and wall-clock includes contention; both are measurement
   fields, not outcomes, and bench/compare.exe treats only the
   deterministic fields as gating. *)

let sweep_entries : Bench_json.t list ref = ref []

let json_of_sweep_point (sp : Core.Experiments.sweep_point) =
  let stats = sp.Core.Experiments.sp_stats in
  let open Bench_json in
  Obj
    [
      ("app", String sp.Core.Experiments.sp_app);
      ("scale", String sp.Core.Experiments.sp_scale);
      ("nprocs", Int sp.Core.Experiments.sp_nprocs);
      ("detect", Bool sp.Core.Experiments.sp_detect);
      ("elide", Bool sp.Core.Experiments.sp_elide);
      ("elided_checks", Int stats.Sim.Stats.elided_checks);
      ("protocol", String sp.Core.Experiments.sp_protocol);
      ("backend", String sp.Core.Experiments.sp_backend);
      ("wall_s", Float sp.Core.Experiments.sp_wall_s);
      ("sim_time_ns", Int sp.Core.Experiments.sp_sim_time_ns);
      ("races", Int sp.Core.Experiments.sp_races);
      ("mem_checksum", Int sp.Core.Experiments.sp_mem_checksum);
      ("messages", Int stats.Sim.Stats.messages);
      ("fragments", Int stats.Sim.Stats.fragments);
      ("bytes", Int stats.Sim.Stats.bytes);
      ("read_notice_bytes", Int stats.Sim.Stats.read_notice_bytes);
      ("bitmap_round_bytes", Int stats.Sim.Stats.bitmap_round_bytes);
      ("diffs_created", Int stats.Sim.Stats.diffs_created);
      ("diffs_gced", Int stats.Sim.Stats.diffs_gced);
      ("pages_fetched", Int stats.Sim.Stats.pages_fetched);
      ("intervals_created", Int stats.Sim.Stats.intervals_created);
      ("interval_comparisons", Int stats.Sim.Stats.interval_comparisons);
      ("bitmaps_requested", Int stats.Sim.Stats.bitmaps_requested);
      ("shared_reads", Int stats.Sim.Stats.shared_reads);
      ("shared_writes", Int stats.Sim.Stats.shared_writes);
      ("private_accesses", Int stats.Sim.Stats.private_accesses);
      ("lock_acquires", Int stats.Sim.Stats.lock_acquires);
      ("barriers", Int stats.Sim.Stats.barriers);
      ("bus_transactions", Int stats.Sim.Stats.bus_transactions);
      ("bus_reads", Int stats.Sim.Stats.bus_reads);
      ("bus_read_x", Int stats.Sim.Stats.bus_read_x);
      ("bus_upgrades", Int stats.Sim.Stats.bus_upgrades);
      ("bus_updates", Int stats.Sim.Stats.bus_updates);
      ("bus_writebacks", Int stats.Sim.Stats.bus_writebacks);
      ("bus_syncs", Int stats.Sim.Stats.bus_syncs);
      ("bus_words", Int stats.Sim.Stats.bus_words);
      ("cache_hits", Int stats.Sim.Stats.cache_hits);
      ("cache_misses", Int stats.Sim.Stats.cache_misses);
      ("cache_evictions", Int stats.Sim.Stats.cache_evictions);
      ("invalidations", Int stats.Sim.Stats.invalidations);
      ("updates_applied", Int stats.Sim.Stats.updates_applied);
      ("minor_words", Float sp.Core.Experiments.sp_minor_words);
      ("promoted_words", Float sp.Core.Experiments.sp_promoted_words);
      ("major_words", Float sp.Core.Experiments.sp_major_words);
      ("minor_collections", Int sp.Core.Experiments.sp_minor_collections);
      ("major_collections", Int sp.Core.Experiments.sp_major_collections);
    ]

let line_of_sweep_point (sp : Core.Experiments.sweep_point) =
  Printf.sprintf
    "%-6s p=%-3d %-6s %s  %8.2fs wall  %10d ns sim  %9.2e minor words  %d races"
    sp.Core.Experiments.sp_app sp.Core.Experiments.sp_nprocs
    sp.Core.Experiments.sp_backend
    (if sp.Core.Experiments.sp_detect && sp.Core.Experiments.sp_elide then "det+elide"
     else if sp.Core.Experiments.sp_detect then "detect   "
     else "no-detect")
    sp.Core.Experiments.sp_wall_s sp.Core.Experiments.sp_sim_time_ns
    sp.Core.Experiments.sp_minor_words sp.Core.Experiments.sp_races

let sweep_procs : int list option ref = ref None

let run_sweep () =
  section
    (Printf.sprintf "Scale sweep (%s inputs): wall clock, allocation, wire totals"
       (scale_name ()));
  let procs =
    match !sweep_procs with
    | Some procs -> procs
    | None -> ( match !scale with Apps.Registry.Small -> [ 4; 8; 16 ] | _ -> [ 8; 16; 32 ])
  in
  let names =
    (* at the large tier only SOR/FFT/Water have enlarged inputs; TSP
       would silently rerun its paper input, so leave it out *)
    match !scale with
    | Apps.Registry.Large -> [ "fft"; "sor"; "water" ]
    | _ -> Apps.Registry.all_names
  in
  let points =
    List.concat_map
      (fun name ->
        List.map (fun nprocs -> (name, nprocs, true, false, !backend)) procs
        (* one uninstrumented point per app anchors the slowdown, and one
           elision point measures how much the static MHP analysis buys *)
        @ [
            (name, List.hd procs, false, false, !backend);
            (name, List.hd procs, true, true, !backend);
          ])
      names
  in
  wall (fun () ->
      let results =
        Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
            Parallel.Pool.map_exn pool
              (fun (name, nprocs, detect, elide, backend) ->
                Core.Experiments.sweep_point ~clock:now_s ~backend ~scale:!scale ~nprocs
                  ~detect ~elide name)
              points)
      in
      List.iter
        (fun sp ->
          sweep_entries := json_of_sweep_point sp :: !sweep_entries;
          Format.fprintf ppf "%s@." (line_of_sweep_point sp))
        results)

(* ------------------------------------------------------------------ *)
(* The separation experiment: the same barrier apps under all three
   backends as p scales. A DSM keeps caches consistent with messages
   (diffs, write notices, bitmap rounds over a wire); a cache-coherent
   bus does it with bus transactions and collects detection bitmaps
   through shared memory. The table puts the two traffic currencies side
   by side — messages/bytes versus bus transactions/words — so the
   paper's "coherency guarantees make online detection cheap" argument
   is visible as data. Points also land in the JSON sweep entries
   (keyed by backend), so compare.exe gates them like any other. *)

let separation_backends = [ "lrc"; "mesi"; "dragon" ]

let run_separation () =
  section "CC vs DSM separation: consistency traffic as p scales";
  let names = [ "sor"; "water" ] in
  let procs = [ 4; 8; 16 ] in
  let points =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun nprocs -> List.map (fun b -> (name, nprocs, b)) separation_backends)
          procs)
      names
  in
  wall (fun () ->
      let results =
        Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
            Parallel.Pool.map_exn pool
              (fun (name, nprocs, backend) ->
                Core.Experiments.sweep_point ~clock:now_s ~backend ~scale:!scale ~nprocs
                  ~detect:true ~elide:false name)
              points)
      in
      Format.fprintf ppf "%-6s %4s %-7s %10s %12s %10s %10s %6s@." "app" "p" "backend"
        "messages" "bytes" "bus-txns" "bus-words" "races";
      List.iter
        (fun (sp : Core.Experiments.sweep_point) ->
          let stats = sp.Core.Experiments.sp_stats in
          sweep_entries := json_of_sweep_point sp :: !sweep_entries;
          Format.fprintf ppf "%-6s %4d %-7s %10d %12d %10d %10d %6d@."
            sp.Core.Experiments.sp_app sp.Core.Experiments.sp_nprocs
            sp.Core.Experiments.sp_backend stats.Sim.Stats.messages
            stats.Sim.Stats.bytes stats.Sim.Stats.bus_transactions
            stats.Sim.Stats.bus_words sp.Core.Experiments.sp_races)
        results)

let json_out : string option ref = ref None

let write_json path =
  let open Bench_json in
  let v =
    Obj
      [
        ("schema", String "cvm-race-bench/1");
        ("scale", String (scale_name ()));
        ("entries", List (List.rev !sweep_entries));
        ( "sections",
          List
            (List.rev_map
               (fun (name, dt) -> Obj [ ("name", String name); ("wall_s", Float dt) ])
               !section_walls) );
      ]
  in
  to_file path v;
  Format.fprintf ppf "@.wrote %s@." path

let all () =
  run_table1 ();
  run_table2 ();
  run_table3 ();
  run_figure3 ();
  run_figure4 ();
  run_figure5 ();
  run_ablation ();
  run_retention ();
  run_protocols ();
  run_faults ();
  run_sweep ();
  run_separation ();
  run_micro ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse_flags = function
    | "--small" :: rest ->
        scale := Apps.Registry.Small;
        parse_flags rest
    | "--large" :: rest ->
        scale := Apps.Registry.Large;
        parse_flags rest
    | "--backend" :: name :: rest ->
        if not (Backends.known name) then begin
          Printf.eprintf "unknown backend %S (available: %s)\n" name
            (String.concat ", " Backends.all);
          exit 2
        end;
        backend := name;
        parse_flags rest
    | "--backend" :: [] ->
        prerr_endline "--backend requires a name (see --list-backends)";
        exit 2
    | "--list-backends" :: _ ->
        List.iter
          (fun name ->
            Printf.printf "%-8s %s\n" name
              (Option.value ~default:"" (Backends.describe name)))
          Backends.all;
        exit 0
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse_flags rest
    | "--json" :: [] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | "--procs" :: spec :: rest ->
        sweep_procs := Some (List.map int_of_string (String.split_on_char ',' spec));
        parse_flags rest
    | "--procs" :: [] ->
        prerr_endline "--procs requires a comma-separated list";
        exit 2
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            prerr_endline "--jobs requires a positive integer";
            exit 2);
        parse_flags rest
    | "--jobs" :: [] ->
        prerr_endline "--jobs requires a positive integer";
        exit 2
    | arg :: rest -> arg :: parse_flags rest
    | [] -> []
  in
  let args = parse_flags args in
  let dispatch = function
    | "table1" -> run_table1 ()
    | "table2" -> run_table2 ()
    | "table3" -> run_table3 ()
    | "figure3" -> run_figure3 ()
    | "figure4" -> run_figure4 ()
    | "figure5" -> run_figure5 ()
    | "ablation" -> run_ablation ()
    | "protocols" -> run_protocols ()
    | "retention" -> run_retention ()
    | "faults" -> run_faults ()
    | "micro" -> run_micro ()
    | "sweep" -> run_sweep ()
    | "separation" -> run_separation ()
    | "all" -> all ()
    | other ->
        Format.fprintf ppf
          "unknown experiment %S (expected \
           table1|table2|table3|figure3|figure4|figure5|ablation|retention|protocols|faults|micro|sweep|separation|all)@."
          other;
        exit 2
  in
  (match args with [] -> all () | args -> List.iter dispatch args);
  match !json_out with Some path -> write_json path | None -> ()
