(* The deterministic combo space behind the differential performance-
   equivalence suite.

   [all] enumerates (app, nprocs, protocol, detection flags, fault plan,
   seed) combinations, each cheap at the Small input scale. The golden
   generator ([gen_equiv_golden.exe]) runs every combo and records the
   observable outcome; the test suite ([suite_perf_equiv.ml]) re-runs
   randomly sampled combos and compares. Because both sides resolve a
   combo by its [label], the combo list can grow without invalidating old
   goldens — but editing an existing combo's definition requires
   regenerating the golden file (see docs/BENCH.md).

   The recorded outcome is everything the optimization must not change:
   the full race set (canonically ordered), the final memory checksum,
   simulated time, and the wire byte/message totals. *)

type combo = { label : string; app : string; nprocs : int; cfg : Lrc.Config.t }

let protocols =
  [
    ("sw", Lrc.Config.Single_writer);
    ("mw", Lrc.Config.Multi_writer);
    ("hb", Lrc.Config.Home_based);
  ]

let faulty drop =
  {
    Sim.Fault.none with
    Sim.Fault.drop;
    duplicate = drop /. 4.0;
    reorder = drop /. 2.0;
  }

let all : combo list =
  let base =
    (* every app under every protocol at two system sizes, default flags *)
    List.concat_map
      (fun app ->
        List.concat_map
          (fun (ptag, protocol) ->
            List.map
              (fun nprocs ->
                {
                  label = Printf.sprintf "%s-%s-p%d" app ptag nprocs;
                  app;
                  nprocs;
                  cfg = { Lrc.Config.default with Lrc.Config.protocol };
                })
              [ 4; 8 ])
          protocols)
      Apps.Registry.extended_names
  in
  let flag_variants =
    (* detection-mode switches the optimization touches *)
    List.concat_map
      (fun app ->
        [
          {
            label = Printf.sprintf "%s-mw-diffs-p4" app;
            app;
            nprocs = 4;
            cfg =
              {
                Lrc.Config.default with
                Lrc.Config.protocol = Lrc.Config.Multi_writer;
                stores_from_diffs = true;
              };
          };
          {
            label = Printf.sprintf "%s-first-race-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.first_race_only = true };
          };
          {
            label = Printf.sprintf "%s-sites-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.retain_sites = true };
          };
          {
            label = Printf.sprintf "%s-nodetect-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.detect = false };
          };
        ])
      Apps.Registry.all_names
  in
  let fault_variants =
    (* lossy wire behind the reliable transport, two loss rates, two
       network seeds: exercises retransmission interleavings *)
    List.concat_map
      (fun app ->
        List.concat_map
          (fun (dtag, drop) ->
            List.map
              (fun net_seed ->
                {
                  label = Printf.sprintf "%s-%s-net%d-p4" app dtag net_seed;
                  app;
                  nprocs = 4;
                  cfg =
                    {
                      Lrc.Config.default with
                      Lrc.Config.fault = faulty drop;
                      transport = Some Sim.Transport.default_config;
                      net_seed = Some net_seed;
                      watchdog_ns = Some 2_000_000_000;
                    };
                })
              [ 7; 1312 ])
          [ ("drop05", 0.05); ("drop20", 0.2) ])
      [ "sor"; "water"; "tsp" ]
  in
  let seed_variants =
    (* alternate scheduling seeds for the lock-heavy apps *)
    List.concat_map
      (fun app ->
        List.map
          (fun seed ->
            {
              label = Printf.sprintf "%s-seed%d-p8" app seed;
              app;
              nprocs = 8;
              cfg = { Lrc.Config.default with Lrc.Config.seed };
            })
          [ 1; 99 ])
      [ "tsp"; "water" ]
  in
  let bus_variants =
    (* the snooping-bus backends over the same apps and sizes, plus the
       elision and no-detection switches they share with LRC *)
    List.concat_map
      (fun app ->
        List.concat_map
          (fun backend ->
            List.map
              (fun nprocs ->
                {
                  label = Printf.sprintf "%s-%s-p%d" app backend nprocs;
                  app;
                  nprocs;
                  cfg = { Lrc.Config.default with Lrc.Config.backend };
                })
              [ 4; 8 ])
          [ "mesi"; "dragon" ])
      Apps.Registry.extended_names
  in
  let elide = Some [] (* derive the elided sites from the app's binary *) in
  let elide_variants =
    List.concat_map
      (fun app ->
        [
          {
            label = Printf.sprintf "%s-mesi-elide-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.backend = "mesi"; elide_sites = elide };
          };
          {
            label = Printf.sprintf "%s-dragon-nodetect-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.backend = "dragon"; detect = false };
          };
          {
            label = Printf.sprintf "%s-elide-p4" app;
            app;
            nprocs = 4;
            cfg = { Lrc.Config.default with Lrc.Config.elide_sites = elide };
          };
        ])
      Apps.Registry.all_names
  in
  base @ flag_variants @ fault_variants @ seed_variants @ bus_variants @ elide_variants

let find label = List.find_opt (fun c -> c.label = label) all

(* ------------------------------------------------------------------ *)

type result = {
  races : string list;  (* canonical race strings, sorted *)
  mem_checksum : int;
  sim_time_ns : int;
  messages : int;
  bytes : int;
  read_notice_bytes : int;
  bitmap_round_bytes : int;
}

let race_string (r : Proto.Race.t) =
  let id_string (id : Proto.Interval.id) =
    Printf.sprintf "%d.%d" id.Proto.Interval.proc id.Proto.Interval.index
  in
  let kind_string = function Proto.Race.Read -> "r" | Proto.Race.Write -> "w" in
  Printf.sprintf "0x%x@e%d:%s%s-%s%s" r.Proto.Race.addr r.Proto.Race.epoch
    (id_string (fst r.Proto.Race.first))
    (kind_string (snd r.Proto.Race.first))
    (id_string (fst r.Proto.Race.second))
    (kind_string (snd r.Proto.Race.second))

let run (combo : combo) : result =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small combo.app in
  let outcome = Core.Driver.run ~cfg:combo.cfg ~app ~nprocs:combo.nprocs () in
  let stats = outcome.Core.Driver.stats in
  {
    races =
      Proto.Race.dedup outcome.Core.Driver.races |> List.map race_string |> List.sort compare;
    mem_checksum = outcome.Core.Driver.mem_checksum;
    sim_time_ns = outcome.Core.Driver.sim_time_ns;
    messages = stats.Sim.Stats.messages;
    bytes = stats.Sim.Stats.bytes;
    read_notice_bytes = stats.Sim.Stats.read_notice_bytes;
    bitmap_round_bytes = stats.Sim.Stats.bitmap_round_bytes;
  }

let result_to_json (r : result) =
  let open Bench_json in
  Obj
    [
      ("races", List (List.map (fun s -> String s) r.races));
      ("mem_checksum", Int r.mem_checksum);
      ("sim_time_ns", Int r.sim_time_ns);
      ("messages", Int r.messages);
      ("bytes", Int r.bytes);
      ("read_notice_bytes", Int r.read_notice_bytes);
      ("bitmap_round_bytes", Int r.bitmap_round_bytes);
    ]

let result_of_json v =
  let open Bench_json in
  {
    races = to_list_exn (member "races" v) |> List.map to_string_exn;
    mem_checksum = to_int_exn (member "mem_checksum" v);
    sim_time_ns = to_int_exn (member "sim_time_ns" v);
    messages = to_int_exn (member "messages" v);
    bytes = to_int_exn (member "bytes" v);
    read_notice_bytes = to_int_exn (member "read_notice_bytes" v);
    bitmap_round_bytes = to_int_exn (member "bitmap_round_bytes" v);
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>races: [%s]@ mem_checksum: %d@ sim_time_ns: %d@ messages: %d@ bytes: %d@ \
     read_notice_bytes: %d@ bitmap_round_bytes: %d@]"
    (String.concat "; " r.races)
    r.mem_checksum r.sim_time_ns r.messages r.bytes r.read_notice_bytes r.bitmap_round_bytes

let golden_path = "test/golden/perf_equiv.json"

let load_golden path =
  let v = Bench_json.of_file path in
  (match Bench_json.member "schema" v with
  | Bench_json.String "cvm-race-equiv/1" -> ()
  | _ -> failwith (Printf.sprintf "%s: not a cvm-race-equiv/1 file" path));
  Bench_json.to_list_exn (Bench_json.member "combos" v)
  |> List.map (fun entry ->
         ( Bench_json.to_string_exn (Bench_json.member "label" entry),
           result_of_json (Bench_json.member "result" entry) ))
