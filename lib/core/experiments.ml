(* Regeneration of every table and figure in the paper's evaluation.
   Each experiment returns structured rows; {!Report} renders them. The
   benchmark harness and the CLI both drive these functions.

   Every sweep-shaped experiment takes [?jobs] and fans its independent
   simulation runs out over a {!Parallel.Pool}. Each task builds its own
   app, cluster and RNGs, so runs share only read-only state (see
   docs/PARALLEL.md); results come back in input order, making the rows
   identical whatever [jobs] is. The default is 1 — sequential, on the
   calling domain — so library callers see no change unless they opt in. *)

let default_procs = 8

let pmap ?(jobs = 1) f xs =
  if jobs <= 1 then List.map f xs
  else Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.map_exn pool f xs)

(* ------------------------------------------------------------------ *)
(* Table 1: application characteristics                                 *)

type table1_row = {
  t1_name : string;
  t1_input : string;
  t1_sync : string;
  t1_memory_kb : int;
  t1_intervals_per_barrier : float;  (* per processor per barrier epoch *)
  t1_slowdown : float;  (* 8-processor instrumented / base *)
}

let paper_table1 =
  [
    ("FFT", 2.0, 2.08);
    ("SOR", 2.0, 1.83);
    ("TSP", 177.0, 2.51);
    ("Water", 46.0, 2.31);
  ]

let table1_row ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(backend = "lrc") name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.backend } in
  let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let stats = sd.Driver.instrumented.Driver.stats in
  {
    t1_name = app.Apps.App.name;
    t1_input = app.Apps.App.input_description;
    t1_sync = app.Apps.App.synchronization;
    t1_memory_kb = app.Apps.App.memory_bytes / 1024;
    t1_intervals_per_barrier =
      float_of_int stats.Sim.Stats.intervals_created
      /. float_of_int (max 1 stats.Sim.Stats.barriers)
      /. float_of_int nprocs;
    t1_slowdown = sd.Driver.factor;
  }

let table1 ?scale ?nprocs ?backend ?jobs () =
  pmap ?jobs (table1_row ?scale ?nprocs ?backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Table 2: static instrumentation statistics                          *)

type table2_row = {
  t2_name : string;
  t2_class : Instrument.Static_analysis.classification;
}

let table2_row ?(scale = Apps.Registry.Paper) name =
  let app = Apps.Registry.make ~scale name in
  {
    t2_name = app.Apps.App.name;
    t2_class = Instrument.Static_analysis.classify (app.Apps.App.binary ());
  }

let table2 ?scale ?jobs () = pmap ?jobs (table2_row ?scale) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Table 3: dynamic metrics                                            *)

type table3_row = {
  t3_name : string;
  t3_intervals_used_pct : float;  (* intervals in >= 1 overlapping pair *)
  t3_bitmaps_used_pct : float;  (* bitmaps retrieved / bitmaps recorded *)
  t3_msg_overhead_pct : float;  (* read-notice bytes / base-protocol bytes *)
  t3_shared_per_sec : float;  (* instrumented shared accesses per sim second *)
  t3_private_per_sec : float;
}

let table3_of_outcome (outcome : Driver.outcome) =
  let stats = outcome.Driver.stats in
  let seconds = float_of_int outcome.Driver.sim_time_ns /. 1e9 in
  let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  let base_bytes =
    stats.Sim.Stats.bytes - stats.Sim.Stats.read_notice_bytes
    - stats.Sim.Stats.bitmap_round_bytes
  in
  {
    t3_name = outcome.Driver.app_name;
    t3_intervals_used_pct =
      pct stats.Sim.Stats.intervals_in_overlap stats.Sim.Stats.intervals_created;
    t3_bitmaps_used_pct = pct stats.Sim.Stats.bitmaps_requested stats.Sim.Stats.bitmaps_total;
    t3_msg_overhead_pct = pct stats.Sim.Stats.read_notice_bytes base_bytes;
    t3_shared_per_sec = float_of_int (Sim.Stats.shared_accesses stats) /. seconds;
    t3_private_per_sec = float_of_int stats.Sim.Stats.private_accesses /. seconds;
  }

let table3_row ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(backend = "lrc") name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.backend } in
  table3_of_outcome (Driver.run ~cfg ~app ~nprocs ())

let table3 ?scale ?nprocs ?backend ?jobs () =
  pmap ?jobs (table3_row ?scale ?nprocs ?backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Figure 3: overhead breakdown per application                        *)

type figure3_row = {
  f3_name : string;
  f3_slowdown : float;
  f3_overheads : (Sim.Stats.overhead_category * float) list;  (* % of base *)
}

let figure3_row ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(backend = "lrc") name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.backend } in
  let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  {
    f3_name = app.Apps.App.name;
    f3_slowdown = sd.Driver.factor;
    f3_overheads = Driver.overhead_percentages sd;
  }

let figure3 ?scale ?nprocs ?backend ?jobs () =
  pmap ?jobs (figure3_row ?scale ?nprocs ?backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Figure 4: slowdown versus number of processors                      *)

type figure4_row = { f4_name : string; f4_points : (int * float) list }

let figure4_row ?(scale = Apps.Registry.Paper) ?(procs = [ 2; 4; 8 ]) ?(backend = "lrc")
    name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.backend } in
  {
    f4_name = app.Apps.App.name;
    f4_points =
      List.map
        (fun nprocs ->
          let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
          (nprocs, sd.Driver.factor))
        procs;
  }

(* Parallelism is per (app, nprocs) point, not per app: the slowest app
   no longer serializes its whole curve. The rows are regrouped from the
   per-point factors afterwards. *)
let figure4_points ?(procs = [ 2; 4; 8 ]) ?(names = Apps.Registry.all_names) () =
  List.concat_map (fun name -> List.map (fun nprocs -> (name, nprocs)) procs) names

let figure4_point ?scale ?(backend = "lrc") ~nprocs name =
  let app = Apps.Registry.make ?scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.backend } in
  let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  (app.Apps.App.name, (nprocs, sd.Driver.factor))

let figure4_rows ~names ~points factors =
  List.map
    (fun name ->
      let mine =
        List.filter_map
          (fun ((n, _), (display, point)) ->
            if n = name then Some (display, point) else None)
          (List.combine points factors)
      in
      {
        f4_name = (match mine with (display, _) :: _ -> display | [] -> name);
        f4_points = List.map snd mine;
      })
    names

let figure4 ?scale ?procs ?(names = Apps.Registry.all_names) ?backend ?jobs () =
  let points = figure4_points ?procs ~names () in
  let factors =
    pmap ?jobs (fun (name, nprocs) -> figure4_point ?scale ?backend ~nprocs name) points
  in
  figure4_rows ~names ~points factors

(* ------------------------------------------------------------------ *)
(* Figure 5: races that occur only on a weak memory system             *)

type figure5_result = {
  f5_protocol : string;
  f5_qptr_seen_by_p2 : int;  (* the value P2 dequeues through *)
  f5_racy_words : (int * string) list;  (* racy address, symbolic name *)
}

(* The section 6.4 scenario: P1 fills a queue slot and updates qPtr and
   qEmpty but the release is missing; P2 polls qEmpty, reads qPtr and
   writes into the slots it believes it owns; P3 concurrently writes slots
   37..40. Under LRC, P2 reads a *stale* qPtr (37) because nothing
   invalidates its cached copy, so its writes collide with P3's. On a
   sequentially consistent system P2 sees qPtr = 100 (qEmpty's value could
   only have propagated together with qPtr's) and the slot races cannot
   occur. *)
let figure5 ~protocol () =
  let cfg = { Lrc.Config.default with protocol; detect = true } in
  let cost = Sim.Cost.default in
  let cluster = Lrc.Cluster.create ~cost ~cfg ~nprocs:3 ~pages:8 () in
  let page = cost.Sim.Cost.page_size in
  let qptr = Lrc.Cluster.alloc cluster ~align:page 8 in
  let qempty = Lrc.Cluster.alloc cluster ~align:page 8 in
  let slots = Lrc.Cluster.alloc cluster ~align:page (128 * 8) in
  let slot_addr v = slots + ((v - 37) * 8) in
  let p2_qptr = ref 0 in
  let body node =
    let open Coherence.Dsm in
    (match pid node with
    | 0 ->
        (* P1: initialize, then fill without releasing *)
        write_int node qptr 37 ~site:"fig5:init";
        write_int node qempty 1 ~site:"fig5:init";
        barrier node;
        compute node 250_000.0;
        write_int node qptr 100 ~site:"fig5:w1(qPtr)";
        write_int node qempty 0 ~site:"fig5:w1(qEmpty)"
    | 1 ->
        (* P2: warm the qPtr page, then poll qEmpty and enqueue *)
        barrier node;
        let _warm = read_int node qptr ~site:"fig5:warm" in
        compute node 800_000.0;
        let empty = read_int node qempty ~site:"fig5:r2(qEmpty)" in
        if empty = 0 then begin
          let v = read_int node qptr ~site:"fig5:r2(qPtr)" in
          p2_qptr := v;
          write_int node (slot_addr v) 1 ~site:"fig5:w2(slot)";
          write_int node (slot_addr (v + 1)) 2 ~site:"fig5:w2(slot)"
        end
    | _ ->
        (* P3: writes slots 37..40 based on its own stale view *)
        barrier node;
        compute node 500_000.0;
        List.iter
          (fun v -> write_int node (slot_addr v) (100 + v) ~site:"fig5:w3(slot)")
          [ 37; 38; 39; 40 ]);
    barrier node
  in
  Lrc.Cluster.run cluster ~body;
  let symbolic addr =
    if addr = qptr then "qPtr"
    else if addr = qempty then "qEmpty"
    else Printf.sprintf "slot[%d]" (((addr - slots) / 8) + 37)
  in
  let racy =
    Lrc.Cluster.races cluster
    |> List.map (fun (r : Proto.Race.t) -> r.addr)
    |> List.sort_uniq compare
    |> List.map (fun addr -> (addr, symbolic addr))
  in
  {
    f5_protocol = Lrc.Config.protocol_name protocol;
    f5_qptr_seen_by_p2 = !p2_qptr;
    f5_racy_words = racy;
  }

let figure5_both ?jobs () =
  pmap ?jobs
    (fun protocol -> figure5 ~protocol ())
    [ Lrc.Config.Single_writer; Lrc.Config.Seq_consistent ]

(* ------------------------------------------------------------------ *)
(* Ablation: the section 6.5 store-instrumentation optimization        *)

type ablation_row = {
  ab_name : string;
  ab_full_slowdown : float;  (* loads + stores instrumented *)
  ab_diff_slowdown : float;  (* stores recovered from diffs *)
  ab_full_races : int;
  ab_diff_races : int;
}

let stores_from_diffs_ablation ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs) name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.protocol = Lrc.Config.Multi_writer } in
  let full = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let cfg_diff = { cfg with Lrc.Config.stores_from_diffs = true } in
  let diff = Driver.measure_slowdown ~cfg:cfg_diff ~app ~nprocs () in
  {
    ab_name = app.Apps.App.name;
    ab_full_slowdown = full.Driver.factor;
    ab_diff_slowdown = diff.Driver.factor;
    ab_full_races = List.length full.Driver.instrumented.Driver.races;
    ab_diff_races = List.length diff.Driver.instrumented.Driver.races;
  }

let stores_from_diffs_ablation_all ?scale ?nprocs ?jobs names =
  pmap ?jobs (stores_from_diffs_ablation ?scale ?nprocs) names

(* ------------------------------------------------------------------ *)
(* Protocol comparison: the same applications over the single-writer,
   multi-writer and home-based protocols (baseline runs, no detection)  *)

type protocol_row = {
  pr_app : string;
  pr_protocol : string;
  pr_time_ms : float;
  pr_messages : int;
  pr_kbytes : int;
  pr_page_fetches : int;
  pr_diffs : int;
}

let compared_protocols =
  [ Lrc.Config.Single_writer; Lrc.Config.Multi_writer; Lrc.Config.Home_based ]

let protocol_row ~scale ~nprocs name protocol =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Lrc.Config.default with Lrc.Config.protocol; detect = false } in
  let outcome = Driver.run ~cfg ~app ~nprocs () in
  let stats = outcome.Driver.stats in
  {
    pr_app = app.Apps.App.name;
    pr_protocol = Lrc.Config.protocol_name protocol;
    pr_time_ms = float_of_int outcome.Driver.sim_time_ns /. 1e6;
    pr_messages = stats.Sim.Stats.messages;
    pr_kbytes = stats.Sim.Stats.bytes / 1024;
    pr_page_fetches = stats.Sim.Stats.pages_fetched;
    pr_diffs = stats.Sim.Stats.diffs_created;
  }

let protocol_comparison ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs) name =
  List.map (protocol_row ~scale ~nprocs name) compared_protocols

let protocol_comparison_all ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(names = Apps.Registry.all_names) ?jobs () =
  let tasks =
    List.concat_map (fun name -> List.map (fun p -> (name, p)) compared_protocols) names
  in
  pmap ?jobs (fun (name, protocol) -> protocol_row ~scale ~nprocs name protocol) tasks

(* ------------------------------------------------------------------ *)
(* Robustness: race-report stability over a lossy wire                  *)

type fault_row = {
  fs_app : string;
  fs_drop_pct : float;  (* wire drop probability, percent *)
  fs_races : int;
  fs_same_races : bool;  (* racy-address set equals the reliable baseline's *)
  fs_same_mem : bool;  (* final memory checksum equals the baseline's *)
  fs_retransmits : int;
  fs_timeouts : int;
  fs_dup_suppressed : int;
  fs_time_ms : float;
}

(* Run each application over the reliable wire, then over the transport
   with increasing wire loss, and compare: the DSM above the transport
   must see the same exactly-once FIFO network, so the set of racy
   addresses is expected to be stable. Full bit-identity (every report
   and the final memory image) additionally holds for barrier-only
   applications; retransmission delays can reorder lock grants, so for
   lock-based applications last-writer-dependent words may differ — the
   rows report the comparison rather than asserting it. *)
let fault_sweep ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(drops = [ 0.0; 0.05; 0.2 ]) name =
  let app = Apps.Registry.make ~scale name in
  let baseline = Driver.run ~app ~nprocs () in
  let base_addrs = Driver.racy_addrs baseline in
  List.map
    (fun drop ->
      let fault =
        {
          Sim.Fault.none with
          Sim.Fault.drop;
          duplicate = drop /. 4.0;
          reorder = drop /. 2.0;
        }
      in
      let cfg =
        {
          Lrc.Config.default with
          Lrc.Config.fault;
          transport = Some Sim.Transport.default_config;
        }
      in
      let outcome = Driver.run ~cfg ~app ~nprocs () in
      let stats = outcome.Driver.stats in
      {
        fs_app = app.Apps.App.name;
        fs_drop_pct = 100.0 *. drop;
        fs_races = List.length outcome.Driver.races;
        fs_same_races = Driver.racy_addrs outcome = base_addrs;
        fs_same_mem = outcome.Driver.mem_checksum = baseline.Driver.mem_checksum;
        fs_retransmits = stats.Sim.Stats.retransmits;
        fs_timeouts = stats.Sim.Stats.rto_timeouts;
        fs_dup_suppressed = stats.Sim.Stats.dup_suppressed;
        fs_time_ms = float_of_int outcome.Driver.sim_time_ns /. 1e6;
      })
    drops

(* One task per app: each task's reliable baseline is reused by its own
   drop points, so the unit of independence is the whole per-app sweep. *)
let fault_sweep_all ?scale ?nprocs ?drops ?jobs () =
  List.concat (pmap ?jobs (fault_sweep ?scale ?nprocs ?drops) Apps.Registry.all_names)

(* ------------------------------------------------------------------ *)
(* Section 6.1 ablation: single-run site retention vs plain detection   *)

type retention_row = {
  rt_app : string;
  rt_plain_slowdown : float;
  rt_retain_slowdown : float;
  rt_site_entries : int;
  rt_site_kbytes : int;  (* approximate storage the paper calls prohibitive *)
}

let site_retention_ablation ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs) name =
  let app = Apps.Registry.make ~scale name in
  let plain = Driver.measure_slowdown ~app ~nprocs () in
  let cfg = { Lrc.Config.default with Lrc.Config.retain_sites = true } in
  let retain = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let entries = retain.Driver.instrumented.Driver.stats.Sim.Stats.site_entries in
  {
    rt_app = app.Apps.App.name;
    rt_plain_slowdown = plain.Driver.factor;
    rt_retain_slowdown = retain.Driver.factor;
    rt_site_entries = entries;
    rt_site_kbytes = entries * 32 / 1024;
  }

let site_retention_ablation_all ?scale ?nprocs ?jobs names =
  pmap ?jobs (site_retention_ablation ?scale ?nprocs) names

(* ------------------------------------------------------------------ *)
(* The benchmark harness's machine-readable sweep point: one simulated
   run per (app, nprocs, detect, elide) tuple, timed and bracketed by
   [Gc.quick_stat] so allocation pressure is part of the record. Self-
   contained and silent, so a pool domain can run the whole measurement,
   GC brackets included. [clock] defaults to wall time; the bench
   harness passes its monotonic clock. *)

type sweep_point = {
  sp_app : string;  (* lowercase *)
  sp_scale : string;  (* Registry.scale_name spelling *)
  sp_nprocs : int;
  sp_detect : bool;
  sp_elide : bool;
  sp_protocol : string;
  sp_backend : string;
  sp_wall_s : float;
  sp_sim_time_ns : int;
  sp_races : int;
  sp_mem_checksum : int;
  sp_stats : Sim.Stats.t;
  sp_minor_words : float;
  sp_promoted_words : float;
  sp_major_words : float;
  sp_minor_collections : int;
  sp_major_collections : int;
}

let sweep_point ?(clock = Unix.gettimeofday) ?(backend = "lrc") ~scale ~nprocs ~detect
    ~elide name =
  let app = Apps.Registry.make ~scale name in
  let cfg =
    {
      Lrc.Config.default with
      Lrc.Config.backend;
      detect;
      elide_sites = (if elide then Some [] else None);
    }
  in
  (* level the heap between points so one entry's garbage does not bill
     the next entry's collector *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let outcome = Driver.run ~cfg ~app ~nprocs () in
  let t1 = clock () in
  let g1 = Gc.quick_stat () in
  {
    sp_app = String.lowercase_ascii name;
    sp_scale = Apps.Registry.scale_name scale;
    sp_nprocs = nprocs;
    sp_detect = detect;
    sp_elide = elide;
    sp_protocol = Lrc.Config.protocol_name cfg.Lrc.Config.protocol;
    sp_backend = backend;
    sp_wall_s = t1 -. t0;
    sp_sim_time_ns = outcome.Driver.sim_time_ns;
    sp_races = List.length outcome.Driver.races;
    sp_mem_checksum = outcome.Driver.mem_checksum;
    sp_stats = outcome.Driver.stats;
    sp_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    sp_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    sp_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    sp_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    sp_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }
