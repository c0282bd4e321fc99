(* The repository benchmark.

   One process runs one workload on one domain: it builds the
   workload's inputs from the seed (set-up, timed several times), then
   repeats fixed passes over the workload's operations until the host
   time budget is spent. Host times are scaled to a reference host speed
   measured by a probe kernel timed around every timed call. Every
   operation's output is checked; a wrong
   output or an exception counts as a failed operation and never stops
   the run. The untraced passes give the end-to-end metrics; with
   [--trace 1] a second set of passes runs with host-stamped spans and
   gives the per-layer metrics. The last line of standard output is one
   JSON object. See README.md in this directory. *)

let now_s = Hostsink.now_s
let printf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let spans_file = ref ""
let plant_wrong_pin = ref false
let print_pins = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME paper-lrc | bus-cc | fuzz-diff | record-replay");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S host-time budget for the measured passes");
    ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
    ("--spans", Arg.Set_string spans_file, "FILE write the traced pass's spans here (JSON lines)");
    ("--plant-wrong-pin", Arg.Set plant_wrong_pin, " corrupt one pin (self-test of the checks)");
    ("--print-pins", Arg.Set print_pins, " run one pass and print the observed pins");
  ]

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)

(* The benchmark runs on shared hosts whose speed drifts by up to 2x for
   seconds to minutes, as neighbours load the memory system. A fixed
   probe kernel (balanced-tree inserts: allocation, promotion and pointer
   chasing, like the simulator) is timed before and after every timed
   call, and the call's host time is scaled by [probe_ref_s] over the
   mean of the two probes: the time the call would have taken at the
   reference speed, where the probe takes [probe_ref_s]. The probe is
   benchmark code, so a change to the program moves only the call's own
   time. *)

module Probe_map = Map.Make (Int)

let probe_ref_s = 0.075

let probe_s () =
  Gc.full_major ();
  let t0 = now_s () in
  let m = ref Probe_map.empty in
  for i = 1 to 80_000 do
    m := Probe_map.add ((i * 7919) land 0xfffff) i !m
  done;
  ignore (Sys.opaque_identity !m);
  now_s () -. t0

let at_ref_speed dt ~before ~after = dt *. probe_ref_s /. ((before +. after) /. 2.0)

(* ------------------------------------------------------------------ *)
(* Passes and layer accounting                                          *)

type pass = {
  tr : Hostsink.t option;  (** [Some] in a traced pass *)
  layer : (string, float) Hashtbl.t;  (** per-layer metric accumulators *)
  mutable op_s : (string * float) list;  (** host seconds per operation *)
  mutable op_ref_s : (string * float) list;  (** the same at the reference speed *)
  mutable probes : float list;  (** probe host seconds *)
  mutable accesses : int;  (** simulated shared + private accesses *)
  mutable sim_ns : int;
  mutable minor_words : float;
  mutable attempted : int;
  mutable failed : int;
}

let new_pass tr =
  {
    tr;
    layer = Hashtbl.create 64;
    op_s = [];
    op_ref_s = [];
    probes = [];
    accesses = 0;
    sim_ns = 0;
    minor_words = 0.0;
    attempted = 0;
    failed = 0;
  }

let bump p name v =
  Hashtbl.replace p.layer name (v +. Option.value ~default:0.0 (Hashtbl.find_opt p.layer name))

let bumpi p name n = bump p name (float_of_int n)
let get p name = Option.value ~default:0.0 (Hashtbl.find_opt p.layer name)

let check p name ok detail =
  p.attempted <- p.attempted + 1;
  if not ok then begin
    p.failed <- p.failed + 1;
    Printf.eprintf "FAILED %s: %s\n%!" name (detail ())
  end

(* A timed call into one layer's public function: a span and host
   seconds into [metric] when traced, a plain call otherwise. *)
let layer p metric name f =
  match p.tr with
  | None -> f ()
  | Some t ->
      let t0 = now_s () in
      let r = Hostsink.span t name f in
      bump p metric (now_s () -. t0);
      r

let account p (o : Core.Driver.outcome) =
  let s = o.Core.Driver.stats in
  p.accesses <- p.accesses + Sim.Stats.instrumented_accesses s;
  p.sim_ns <- p.sim_ns + o.Core.Driver.sim_time_ns;
  if p.tr <> None then begin
    bumpi p "core.run_count" 1;
    bumpi p "lrc.messages" s.Sim.Stats.messages;
    bumpi p "lrc.bytes" s.Sim.Stats.bytes;
    bumpi p "lrc.pages_fetched" s.Sim.Stats.pages_fetched;
    bumpi p "lrc.diffs_created" s.Sim.Stats.diffs_created;
    bumpi p "lrc.intervals_created" s.Sim.Stats.intervals_created;
    bumpi p "racedetect.interval_comparisons" s.Sim.Stats.interval_comparisons;
    bumpi p "racedetect.bitmaps_requested" s.Sim.Stats.bitmaps_requested;
    if o.Core.Driver.detect then
      bumpi p "instrument.checks" (Sim.Stats.instrumented_accesses s - s.Sim.Stats.elided_checks);
    bumpi p "instrument.elided_checks" s.Sim.Stats.elided_checks;
    bumpi p "cc.bus_transactions" s.Sim.Stats.bus_transactions;
    bumpi p "cc.cache_hits" s.Sim.Stats.cache_hits;
    bumpi p "cc.cache_misses" s.Sim.Stats.cache_misses;
    bumpi p "sim.retransmits" s.Sim.Stats.retransmits;
    bumpi p "sim.timeouts" s.Sim.Stats.rto_timeouts
  end

(* [Core.Driver.run], with the host-stamped sink installed through
   [Lrc.Config.tracer] when traced. *)
let drive p ~(cfg : Lrc.Config.t) ~app ~nprocs =
  let go cfg = Core.Driver.run ~cfg ~app ~nprocs () in
  match p.tr with
  | None ->
      let o = go cfg in
      account p o;
      o
  | Some t ->
      let w0 = Gc.minor_words () and t0 = now_s () in
      let o, r =
        Hostsink.span t "core.run"
          ~counts:(fun (_, r) -> Hostsink.tag_counts r)
          (fun () ->
            let r, sink = Hostsink.run_sink t in
            (go { cfg with Lrc.Config.tracer = Some sink }, r))
      in
      let dt = now_s () -. t0 and dw = Gc.minor_words () -. w0 in
      bump p "core.run_host_s" dt;
      bumpi p "sim.events" r.Hostsink.events;
      bump p "lrc.barrier_window_host_s" r.Hostsink.window_s;
      bumpi p "racedetect.check_entries" r.Hostsink.check_entries;
      if cfg.Lrc.Config.backend <> "lrc" then begin
        bump p "cc.run_host_s" dt;
        bump p "cc.minor_words" dw;
        bumpi p "cc.accesses" (Sim.Stats.instrumented_accesses o.Core.Driver.stats)
      end;
      account p o;
      o

let oracle p (o : Core.Driver.outcome) =
  if p.tr <> None then bumpi p "racedetect.oracle_events" (List.length o.Core.Driver.trace);
  layer p "racedetect.oracle_host_s" "racedetect.oracle" (fun () -> Core.Driver.oracle_addrs o)

(* ------------------------------------------------------------------ *)
(* Pins                                                                 *)

let observed = ref []

let pin_of (o : Core.Driver.outcome) =
  {
    Pins.races = Core.Driver.racy_addrs o;
    checksum = o.Core.Driver.mem_checksum;
    sim_ns = o.Core.Driver.sim_time_ns;
  }

let planted = ref false

let expected key =
  match List.assoc_opt key Pins.fixed with
  | Some pin when !plant_wrong_pin && not !planted ->
      planted := true;
      Some { pin with Pins.checksum = pin.Pins.checksum lxor 1 }
  | found -> found

let show_ints l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]"

(* Check a run against its pin. [seeded]: the simulated time depends on
   the seed and is compared only where a seed-keyed pin exists. *)
let check_pin ?(seeded = false) p key o =
  let got = pin_of o in
  observed := (key, got) :: !observed;
  match expected key with
  | None -> check p key !print_pins (fun () -> "no pin")
  | Some want ->
      let want_ns =
        if seeded then List.assoc_opt (key, !seed) Pins.seeded else Some want.Pins.sim_ns
      in
      let ok =
        got.Pins.races = want.Pins.races
        && got.Pins.checksum = want.Pins.checksum
        && Option.fold ~none:true ~some:(fun ns -> ns = got.Pins.sim_ns) want_ns
      in
      check p key ok (fun () ->
          Printf.sprintf "races %s checksum %d sim_ns %d, pinned %s %d %s" (show_ints got.Pins.races)
            got.Pins.checksum got.Pins.sim_ns (show_ints want.Pins.races) want.Pins.checksum
            (Option.fold ~none:"-" ~some:string_of_int want_ns))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type op = { name : string; run : pass -> unit }

type workload = {
  ops : op list;
  twins : (string * string) list;  (** (detect op, no-detect op) *)
  seed_note : string;  (** what the seed changes, for the report *)
}

(* Inputs. Each keeps the paper's data size (512x512 SOR grid, 216 Water
   molecules, 64x64x16 FFT) but runs fewer sweeps or time steps, so that
   a pass fits several times in a run; every barrier epoch, and so the
   detector's per-epoch work, keeps its paper-scale size. TSP runs 15
   cities instead of 16: its host time is the app's own branch-and-bound
   search, which detection barely changes, and at 16 cities that search
   alone would be a third of the pass. *)
let water_steps n = Apps.Water.make { Apps.Water.paper_params with Apps.Water.steps = n }
let sor_sweeps n = Apps.Sor.make { Apps.Sor.paper_params with Apps.Sor.iters = n }
let tsp_cities n = Apps.Tsp.make { Apps.Tsp.paper_params with Apps.Tsp.ncities = n }
let fault_free = "fault-free and built from fixed inputs: the seed does not change them"
let detect_cfg = Lrc.Config.default
let nodetect_cfg = { Lrc.Config.default with Lrc.Config.detect = false }
let elide_cfg = { Lrc.Config.default with Lrc.Config.elide_sites = Some [] }
let bus_cfg backend = { Lrc.Config.default with Lrc.Config.backend }

(* The instrumentation step: the static passes over each binary, which
   the paper runs before execution. Timed as part of set-up. *)
let instrument setup_layer (app : Apps.App.t) ~elide =
  let t0 = now_s () in
  let binary = app.Apps.App.binary () in
  ignore (Instrument.Static_analysis.analyze binary);
  if elide then ignore (Instrument.Mhp.race_free_sites binary);
  bump setup_layer "instrument.static_host_s" (now_s () -. t0)

let run_op name ~cfg ~app ~nprocs =
  { name; run = (fun p -> check_pin p name (drive p ~cfg ~app ~nprocs)) }

let paper_lrc setup_layer =
  let water = water_steps 1 in
  let sor = sor_sweeps 2 in
  let tsp = tsp_cities 15 in
  let fft = Apps.Registry.make ~scale:Apps.Registry.Paper "fft" in
  instrument setup_layer water ~elide:false;
  instrument setup_layer sor ~elide:true;
  instrument setup_layer tsp ~elide:false;
  instrument setup_layer fft ~elide:false;
  {
    ops =
      [
        run_op "water-p32-detect" ~cfg:detect_cfg ~app:water ~nprocs:32;
        run_op "water-p32-nodetect" ~cfg:nodetect_cfg ~app:water ~nprocs:32;
        run_op "sor-p32-detect" ~cfg:detect_cfg ~app:sor ~nprocs:32;
        run_op "sor-p32-nodetect" ~cfg:nodetect_cfg ~app:sor ~nprocs:32;
        run_op "sor-p32-elide" ~cfg:elide_cfg ~app:sor ~nprocs:32;
        run_op "tsp-p8-detect" ~cfg:detect_cfg ~app:tsp ~nprocs:8;
        run_op "fft-p16-detect" ~cfg:detect_cfg ~app:fft ~nprocs:16;
      ];
    twins = [ ("water-p32-detect", "water-p32-nodetect"); ("sor-p32-detect", "sor-p32-nodetect") ];
    seed_note = fault_free;
  }

let bus_cc setup_layer =
  let sor = sor_sweeps 1 in
  let water = water_steps 2 in
  instrument setup_layer sor ~elide:false;
  instrument setup_layer water ~elide:false;
  {
    ops =
      List.concat_map
        (fun backend ->
          [
            run_op ("sor-p8-" ^ backend) ~cfg:(bus_cfg backend) ~app:sor ~nprocs:8;
            run_op ("water-p8-" ^ backend) ~cfg:(bus_cfg backend) ~app:water ~nprocs:8;
          ])
        [ "mesi"; "dragon" ];
    twins = [];
    seed_note = fault_free;
  }

let fuzz_programs = 600
let fuzz_batch = 50

(* The steps of [Workload.Harness.driver_runner], with each layer call
   timed separately. *)
let fuzz_runner p ~backend ~elide (program : Workload.Program.t) =
  let base = ref 0 in
  let app = Workload.Program.to_app ~base program in
  let cfg =
    {
      Lrc.Config.default with
      Lrc.Config.backend;
      record_trace = true;
      elide_sites = (if elide then Some [] else None);
    }
  in
  let o = drive p ~cfg ~app ~nprocs:program.Workload.Program.nprocs in
  let to_words addrs = List.sort_uniq compare (List.map (fun a -> (a - !base) / 8) addrs) in
  {
    Workload.Harness.detected = to_words (Core.Driver.racy_addrs o);
    oracle = to_words (oracle p o);
    checksum = o.Core.Driver.mem_checksum;
  }

let fuzz_diff setup_layer =
  let t0 = now_s () in
  let programs =
    List.init fuzz_programs (fun index -> Workload.Generator.generate_seeded ~seed:!seed ~index ())
  in
  bump setup_layer "workload.generate_host_s" (now_s () -. t0);
  bumpi setup_layer "workload.programs" fuzz_programs;
  List.iter
    (fun g ->
      let t0 = now_s () in
      let binary = Workload.Program.binary g.Workload.Generator.program in
      ignore (Instrument.Static_analysis.analyze binary);
      ignore (Instrument.Mhp.race_free_sites binary);
      bump setup_layer "instrument.static_host_s" (now_s () -. t0))
    programs;
  let check_all programs p =
    List.iter
      (fun g ->
        let program = g.Workload.Generator.program in
        let name = program.Workload.Program.name in
        match
          layer p "workload.check_host_s" "workload.check" (fun () ->
              Workload.Harness.check ~runner:(fuzz_runner p) ~ground_truth:g.Workload.Generator.racy
                program)
        with
        | None ->
            check p name true (fun () -> "");
            bumpi p "workload.planted_found" (List.length g.Workload.Generator.racy)
        | Some m ->
            check p name false (fun () ->
                Workload.Harness.kind_name m.Workload.Harness.kind ^ ": " ^ m.Workload.Harness.detail)
        | exception e -> check p name false (fun () -> Printexc.to_string e))
      programs
  in
  (* one operation per batch of programs *)
  let batch i = List.filteri (fun j _ -> j / fuzz_batch = i) programs in
  {
    ops =
      List.init (fuzz_programs / fuzz_batch) (fun i ->
          { name = Printf.sprintf "check-programs-%d" i; run = check_all (batch i) });
    twins = [];
    seed_note = "the seed generates the programs";
  }

let record_replay setup_layer =
  let oracle_app = water_steps 1 in
  instrument setup_layer oracle_app ~elide:false;
  instrument setup_layer (Apps.Registry.make ~scale:Apps.Registry.Paper "sor") ~elide:false;
  let lossy =
    {
      Lrc.Config.default with
      Lrc.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.05 };
      transport = Some Sim.Transport.default_config;
      net_seed = Some !seed;
    }
  in
  let recordings = [ ("sor-p16-drop5", "sor", lossy, true); ("water-p16", "water", detect_cfg, false) ] in
  (* logs made by this pass's record op, for its decode and replay ops *)
  let logs = ref [] in
  let record p =
    logs := [];
    List.iter
      (fun (name, app_name, cfg, seeded) ->
        match
          layer p "trace.record_host_s" "trace.record" (fun () ->
              Core.Trace_run.record ~cfg ~app_name ~scale:Apps.Registry.Paper ~nprocs:16 ())
        with
        | o, log ->
            account p o;
            check_pin ~seeded p ("record-" ^ name) o;
            if p.tr <> None then bumpi p "trace.log_bytes" (String.length log);
            logs := !logs @ [ (name, o, log) ]
        | exception e -> check p ("record-" ^ name) false (fun () -> Printexc.to_string e))
      recordings
  in
  let each_log p what f =
    if List.length !logs <> List.length recordings then
      check p what false (fun () -> "no log: a recording failed");
    List.iter
      (fun (name, o, log) ->
        let name = what ^ "-" ^ name in
        match f o log with
        | ok, detail -> check p name ok detail
        | exception e -> check p name false (fun () -> Printexc.to_string e))
      !logs
  in
  let decode p =
    each_log p "decode" (fun o log ->
        let d = layer p "trace.decode_host_s" "trace.decode" (fun () -> Trace.Codec.decode log) in
        let n = Array.length d.Trace.Codec.events in
        if p.tr <> None then bumpi p "trace.events" n;
        let tail = if n = 0 then None else Some (snd d.Trace.Codec.events.(n - 1)) in
        let ok =
          match tail with
          | Some (Trace.Event.Run_end { checksum; sim_time_ns; _ }) ->
              checksum = o.Core.Driver.mem_checksum && sim_time_ns = o.Core.Driver.sim_time_ns
          | _ -> false
        in
        (ok, fun () -> "log does not end in the run's Run_end"))
  in
  let replay p =
    each_log p "replay" (fun _ log ->
        let r = layer p "trace.replay_host_s" "trace.replay" (fun () -> Core.Trace_run.replay log) in
        account p r.Core.Trace_run.rr_outcome;
        (Core.Trace_run.clean r, fun () -> "replay not clean"))
  in
  let offline p =
    let cfg = { Lrc.Config.default with Lrc.Config.record_trace = true } in
    let o = drive p ~cfg ~app:oracle_app ~nprocs:8 in
    check_pin p "oracle-water-p8" o;
    let detected = Core.Driver.racy_addrs o and offline = oracle p o in
    check p "oracle-water-p8-agree" (detected = offline) (fun () ->
        Printf.sprintf "detector %s, oracle %s" (show_ints detected) (show_ints offline))
  in
  {
    ops =
      [
        { name = "record"; run = record };
        { name = "decode"; run = decode };
        { name = "replay"; run = replay };
        { name = "oracle-water-p8"; run = offline };
      ];
    twins = [];
    seed_note =
      Printf.sprintf "the seed is the lossy recording's net_seed; its simulated-time pin is %s"
        (if List.mem_assoc ("record-sor-p16-drop5", !seed) Pins.seeded then "present"
         else "absent, so only its races and checksum are checked");
  }

let workloads =
  [ ("paper-lrc", paper_lrc); ("bus-cc", bus_cc); ("fuzz-diff", fuzz_diff); ("record-replay", record_replay) ]

(* ------------------------------------------------------------------ *)
(* Running passes                                                       *)

(* a fixed count, so that the heap the passes start from, and so peak
   RSS, does not depend on the host's speed *)
let setup_runs = 9

let run_pass w tr =
  let p = new_pass tr in
  let before = ref (probe_s ()) in
  p.probes <- [ !before ];
  List.iter
    (fun op ->
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let t0 = now_s () in
      (try
         match tr with
         | None -> op.run p
         | Some t -> Hostsink.span t op.name (fun () -> op.run p)
       with e -> check p op.name false (fun () -> Printexc.to_string e));
      let dt = now_s () -. t0 in
      p.minor_words <- p.minor_words +. (Gc.minor_words () -. w0);
      let after = probe_s () in
      p.op_s <- (op.name, dt) :: p.op_s;
      p.op_ref_s <- (op.name, at_ref_speed dt ~before:!before ~after) :: p.op_ref_s;
      p.probes <- after :: p.probes;
      before := after)
    w.ops;
  p

let at_ref p = p.op_ref_s
let wall ?(times = fun p -> p.op_s) p = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (times p)

(* Passes while another one, as long as the last, fits in [budget] host
   seconds; at least one. [first] runs after the first pass. *)
let passes ?(first = ignore) w ~traced ~budget =
  let start = now_s () in
  let rec go acc n last =
    if n >= 1 && now_s () -. start +. last > budget then List.rev acc
    else begin
      let t0 = now_s () in
      let p = run_pass w (if traced then Some (Hostsink.create ()) else None) in
      if n = 0 then first ();
      go (p :: acc) (n + 1) (now_s () -. t0)
    end
  in
  go [] 0 0.0

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let med ps f = median (List.map f ps)
let op_median ?(times = fun p -> p.op_s) ps name =
  med ps (fun p -> Option.value ~default:0.0 (List.assoc_opt name (times p)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let end_to_end =
  [
    ("wall_s", "s");
    ("sim_accesses_per_s", "1/s");
    ("setup_s", "s");
    ("minor_words_per_access", "words");
    ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
    ("sim_time", "sim_s");
  ]

let per_layer =
  [
    ("racedetect.detect_host_s", "s");
    ("lrc.barrier_window_host_s", "s");
    ("cc.host_ns_per_bus_txn", "ns");
    ("cc.bus_transactions", "count");
    ("cc.cache_hits", "count");
    ("cc.cache_misses", "count");
    ("cc.hit_ratio", "ratio");
    ("cc.minor_words_per_access", "words");
    ("sim.events", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.retransmits", "count");
    ("sim.timeouts", "count");
    ("racedetect.oracle_host_s", "s");
    ("racedetect.oracle_events", "count");
    ("racedetect.oracle_ns_per_event", "ns");
    ("trace.record_host_s", "s");
    ("trace.decode_host_s", "s");
    ("trace.replay_host_s", "s");
    ("trace.events", "count");
    ("trace.log_bytes", "bytes");
    ("trace.bytes_per_event", "bytes");
    ("instrument.static_host_s", "s");
    ("core.run_host_s", "s");
    ("core.run_count", "count");
    ("workload.generate_host_s", "s");
    ("workload.check_host_s", "s");
    ("workload.programs", "count");
    ("workload.planted_found", "count");
    ("lrc.messages", "count");
    ("lrc.bytes", "bytes");
    ("lrc.pages_fetched", "count");
    ("lrc.diffs_created", "count");
    ("lrc.intervals_created", "count");
    ("racedetect.interval_comparisons", "count");
    ("racedetect.bitmaps_requested", "count");
    ("racedetect.check_entries", "count");
    ("instrument.checks", "count");
    ("instrument.elided_checks", "count");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("bench.trace_overhead_s", "s");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer values of one traced pass; [setup] holds the set-up layers. *)
let layer_values ~setup ~detect ~untraced_wall (p : pass) =
  let g name = get p name in
  let s name = get setup name in
  let spans = match p.tr with Some t -> t.Hostsink.spans | None -> [] in
  let op_spans = List.filter (fun sp -> sp.Hostsink.parent = 0) spans in
  let gc f = List.fold_left (fun acc sp -> acc +. f sp) 0.0 op_spans in
  [
    ("racedetect.detect_host_s", detect);
    ("lrc.barrier_window_host_s", g "lrc.barrier_window_host_s");
    ("cc.host_ns_per_bus_txn", 1e9 *. ratio (g "cc.run_host_s") (g "cc.bus_transactions"));
    ("cc.bus_transactions", g "cc.bus_transactions");
    ("cc.cache_hits", g "cc.cache_hits");
    ("cc.cache_misses", g "cc.cache_misses");
    ("cc.hit_ratio", ratio (g "cc.cache_hits") (g "cc.cache_hits" +. g "cc.cache_misses"));
    ("cc.minor_words_per_access", ratio (g "cc.minor_words") (g "cc.accesses"));
    ("sim.events", g "sim.events");
    ("sim.host_ns_per_event", 1e9 *. ratio (g "core.run_host_s") (g "sim.events"));
    ("sim.retransmits", g "sim.retransmits");
    ("sim.timeouts", g "sim.timeouts");
    ("racedetect.oracle_host_s", g "racedetect.oracle_host_s");
    ("racedetect.oracle_events", g "racedetect.oracle_events");
    ( "racedetect.oracle_ns_per_event",
      1e9 *. ratio (g "racedetect.oracle_host_s") (g "racedetect.oracle_events") );
    ("trace.record_host_s", g "trace.record_host_s");
    ("trace.decode_host_s", g "trace.decode_host_s");
    ("trace.replay_host_s", g "trace.replay_host_s");
    ("trace.events", g "trace.events");
    ("trace.log_bytes", g "trace.log_bytes");
    ("trace.bytes_per_event", ratio (g "trace.log_bytes") (g "trace.events"));
    ("instrument.static_host_s", s "instrument.static_host_s");
    ("core.run_host_s", g "core.run_host_s");
    ("core.run_count", g "core.run_count");
    ("workload.generate_host_s", s "workload.generate_host_s");
    ("workload.check_host_s", g "workload.check_host_s");
    ("workload.programs", s "workload.programs");
    ("workload.planted_found", g "workload.planted_found");
    ("lrc.messages", g "lrc.messages");
    ("lrc.bytes", g "lrc.bytes");
    ("lrc.pages_fetched", g "lrc.pages_fetched");
    ("lrc.diffs_created", g "lrc.diffs_created");
    ("lrc.intervals_created", g "lrc.intervals_created");
    ("racedetect.interval_comparisons", g "racedetect.interval_comparisons");
    ("racedetect.bitmaps_requested", g "racedetect.bitmaps_requested");
    ("racedetect.check_entries", g "racedetect.check_entries");
    ("instrument.checks", g "instrument.checks");
    ("instrument.elided_checks", g "instrument.elided_checks");
    ("gc.minor_words", gc (fun sp -> sp.Hostsink.minor_words));
    ("gc.promoted_words", gc (fun sp -> sp.Hostsink.promoted_words));
    ("gc.major_collections", gc (fun sp -> float_of_int sp.Hostsink.major_collections));
    ("bench.trace_overhead_s", wall ~times:at_ref p -. untraced_wall);
  ]

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted
    failed (String.concat ", " fields)

let print_observed_pins () =
  let pins = List.sort_uniq compare !observed in
  printf "(* observed pins, seed %d *)\n" !seed;
  List.iter
    (fun (key, p) ->
      printf "(%S, { races = %s; checksum = %d; sim_ns = %d });\n" key (show_ints p.Pins.races)
        p.Pins.checksum p.Pins.sim_ns)
    pins

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  (* warm the probe's heap before its first counted use *)
  for _ = 1 to 3 do
    ignore (probe_s ())
  done;
  (* Set-up, [setup_runs] times: the median at the reference speed is reported,
     the last result is used. Each earlier result is dropped and
     collected before the next. *)
  let setup_times = ref [] and setup_ref = ref [] and last = ref None in
  let before = ref (probe_s ()) in
  for _ = 1 to setup_runs do
    last := None;
    Gc.full_major ();
    let layers = new_pass None in
    let t0 = now_s () in
    let w = make layers in
    let dt = now_s () -. t0 in
    let after = probe_s () in
    setup_times := dt :: !setup_times;
    setup_ref := at_ref_speed dt ~before:!before ~after :: !setup_ref;
    before := after;
    last := Some (w, layers)
  done;
  let setup_s = median !setup_ref in
  let w, setup_layers = Option.get !last in
  if !print_pins then begin
    ignore (run_pass w None);
    print_observed_pins ();
    exit 0
  end;
  let traced = !trace = 1 in
  let budget = if traced then !seconds /. 2.0 else !seconds in
  (* peak RSS over set-up and the first pass: a fixed amount of work,
     whatever the number of passes the budget allows *)
  let rss = ref 0.0 in
  let untraced = passes w ~traced:false ~budget ~first:(fun () -> rss := peak_rss_mb ()) in
  let traced_passes = if traced then passes w ~traced:true ~budget else [] in
  let all = untraced @ traced_passes in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 all in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 all in
  (* each operation's median over the passes, summed: a slow spell in
     one operation of one pass does not move it *)
  let sum_medians times =
    List.fold_left (fun acc op -> acc +. op_median ~times untraced op.name) 0.0 w.ops
  in
  let wall_s = sum_medians at_ref and host_wall_s = sum_medians (fun p -> p.op_s) in
  printf "workload %s, seed %d (%s)\n" !workload !seed w.seed_note;
  printf "host: ocaml %s, profile %s, nproc %d, domains 1\n" Sys.ocaml_version Build_info.profile
    (Domain.recommended_domain_count ());
  printf "passes: %d untraced, %d traced; operations %d attempted, %d failed (failed_frac %.6f)\n"
    (List.length untraced) (List.length traced_passes) attempted failed
    (ratio (float_of_int failed) (float_of_int attempted));
  let times l = String.concat "" (List.map (Printf.sprintf " %.4f") l) in
  printf "set-ups%s s; pass walls%s s\n" (times (List.rev !setup_times))
    (times (List.map wall untraced));
  printf "host speed: probe median %.4f s, reference %.4f s; wall %.4f s at host speed, %.4f s at the reference\n"
    (median (List.concat_map (fun p -> p.probes) untraced))
    probe_ref_s host_wall_s wall_s;
  List.iter
    (fun op ->
      printf "  op %-22s median %.4f s, %.4f s at the reference\n" op.name
        (op_median untraced op.name)
        (op_median ~times:at_ref untraced op.name))
    w.ops;
  let metrics =
    if not traced then
      [
        ("wall_s", wall_s);
        ("sim_accesses_per_s", ratio (med untraced (fun p -> float_of_int p.accesses)) wall_s);
        ("setup_s", setup_s);
        ( "minor_words_per_access",
          med untraced (fun p -> ratio p.minor_words (float_of_int p.accesses)) );
        ("peak_rss_mb", !rss);
        ("ok_frac", ratio (float_of_int (attempted - failed)) (float_of_int attempted));
        ("sim_time", med untraced (fun p -> float_of_int p.sim_ns /. 1e9));
      ]
      |> List.map (fun (name, v) -> (name, List.assoc name end_to_end, v))
    else
      let detect =
        let m = op_median ~times:at_ref untraced in
        List.fold_left (fun acc (d, n) -> acc +. m d -. m n) 0.0 w.twins
      in
      let per_pass =
        List.map (layer_values ~setup:setup_layers ~detect ~untraced_wall:wall_s) traced_passes
      in
      List.map
        (fun (name, unit) -> (name, unit, median (List.map (List.assoc name) per_pass)))
        per_layer
  in
  List.iter (fun (name, unit, v) -> printf "  %-34s %16.6g %s\n" name v unit) metrics;
  (match traced_passes with
  | { tr = Some t; _ } :: _ when !spans_file <> "" -> Hostsink.write t !spans_file
  | _ -> ());
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
