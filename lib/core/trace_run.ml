(* Record/replay orchestration.

   [record] runs an application with a trace recorder plugged into the
   cluster and returns the outcome together with the binary log.
   [replay] rebuilds the exact configuration from a log's metadata, runs
   the application again with a verifier sink, and reports either a
   clean match or the first divergence. Because the whole simulation is
   deterministic given (app, scale, nprocs, config, seeds), a pristine
   log must verify cleanly; any mismatch means the log was edited, the
   code changed, or determinism broke — all three are exactly what this
   exists to catch. *)

(* Both directions of the transport mapping record/rebuild every field:
   a recording made with a tuned RTO, backoff ceiling, retry cap or
   header/ack wire sizes must replay under the identical retransmission
   timing, never under the current defaults. *)

let transport_meta_of (tc : Sim.Transport.config) : Trace.Codec.transport_meta =
  {
    Trace.Codec.tm_initial_rto_ns = tc.Sim.Transport.initial_rto_ns;
    tm_max_rto_ns = tc.Sim.Transport.max_rto_ns;
    tm_max_retries = tc.Sim.Transport.max_retries;
    tm_header_bytes = tc.Sim.Transport.header_bytes;
    tm_ack_bytes = tc.Sim.Transport.ack_bytes;
  }

let transport_of_meta (tm : Trace.Codec.transport_meta) : Sim.Transport.config =
  {
    Sim.Transport.initial_rto_ns = tm.Trace.Codec.tm_initial_rto_ns;
    max_rto_ns = tm.Trace.Codec.tm_max_rto_ns;
    max_retries = tm.Trace.Codec.tm_max_retries;
    header_bytes = tm.Trace.Codec.tm_header_bytes;
    ack_bytes = tm.Trace.Codec.tm_ack_bytes;
  }

let meta_of ~app_name ~scale ~nprocs (cfg : Lrc.Config.t) : Trace.Codec.meta =
  let fault = cfg.Lrc.Config.fault in
  {
    Trace.Codec.m_app = app_name;
    m_scale = Apps.Registry.scale_name scale;
    m_nprocs = nprocs;
    m_protocol = Lrc.Config.protocol_name cfg.Lrc.Config.protocol;
    m_detect = cfg.Lrc.Config.detect;
    m_first_race_only = cfg.Lrc.Config.first_race_only;
    m_stores_from_diffs = cfg.Lrc.Config.stores_from_diffs;
    m_seed = cfg.Lrc.Config.seed;
    m_net_seed = cfg.Lrc.Config.net_seed;
    m_drop = fault.Sim.Fault.drop;
    m_dup = fault.Sim.Fault.duplicate;
    m_reorder = fault.Sim.Fault.reorder;
    m_reorder_window_ns = fault.Sim.Fault.reorder_window_ns;
    m_spike = fault.Sim.Fault.spike;
    m_spike_ns = fault.Sim.Fault.spike_ns;
    m_partitions =
      List.map
        (fun (p : Sim.Fault.partition) ->
          (p.Sim.Fault.p_a, p.Sim.Fault.p_b, p.Sim.Fault.p_from_ns, p.Sim.Fault.p_until_ns))
        fault.Sim.Fault.partitions;
    m_transport = Option.map transport_meta_of cfg.Lrc.Config.transport;
    m_watchdog_ns = cfg.Lrc.Config.watchdog_ns;
    m_gc_epochs = cfg.Lrc.Config.gc_epochs;
    (* only the flag travels in the log; the site set is re-derived from
       the app's binary at replay (it is a pure function of the binary) *)
    m_elide = cfg.Lrc.Config.elide_sites <> None;
    m_backend = cfg.Lrc.Config.backend;
    m_cc_line_bytes = cfg.Lrc.Config.cc_line_bytes;
    m_cc_sets = cfg.Lrc.Config.cc_sets;
    m_cc_ways = cfg.Lrc.Config.cc_ways;
    (* the v5 schedule marker: only logs recorded on the removed sharded
       engine carry it, and those are rejected on replay *)
    m_sim_jobs = None;
  }

let config_of_meta (m : Trace.Codec.meta) : Lrc.Config.t =
  {
    Lrc.Config.default with
    Lrc.Config.protocol = Lrc.Config.protocol_of_name m.Trace.Codec.m_protocol;
    detect = m.Trace.Codec.m_detect;
    first_race_only = m.Trace.Codec.m_first_race_only;
    stores_from_diffs = m.Trace.Codec.m_stores_from_diffs;
    seed = m.Trace.Codec.m_seed;
    net_seed = m.Trace.Codec.m_net_seed;
    fault =
      {
        Sim.Fault.drop = m.Trace.Codec.m_drop;
        duplicate = m.Trace.Codec.m_dup;
        reorder = m.Trace.Codec.m_reorder;
        reorder_window_ns = m.Trace.Codec.m_reorder_window_ns;
        spike = m.Trace.Codec.m_spike;
        spike_ns = m.Trace.Codec.m_spike_ns;
        partitions =
          List.map
            (fun (p_a, p_b, p_from_ns, p_until_ns) ->
              { Sim.Fault.p_a; p_b; p_from_ns; p_until_ns })
            m.Trace.Codec.m_partitions;
      };
    transport = Option.map transport_of_meta m.Trace.Codec.m_transport;
    watchdog_ns = m.Trace.Codec.m_watchdog_ns;
    gc_epochs = m.Trace.Codec.m_gc_epochs;
    elide_sites = (if m.Trace.Codec.m_elide then Some [] else None);
    backend = m.Trace.Codec.m_backend;
    cc_line_bytes = m.Trace.Codec.m_cc_line_bytes;
    cc_sets = m.Trace.Codec.m_cc_sets;
    cc_ways = m.Trace.Codec.m_cc_ways;
  }

(* A log this build cannot re-execute is rejected before anything runs,
   naming the offending metadata field: an unknown app, scale, protocol
   or backend, or the schedule marker of the removed sharded engine,
   whose event order this build no longer has. *)
let check_replayable (m : Trace.Codec.meta) =
  let reject fmt = Printf.ksprintf (fun msg -> raise (Trace.Codec.Corrupt msg)) fmt in
  let parses f v = match f v with _ -> true | exception Invalid_argument _ -> false in
  let app = m.Trace.Codec.m_app in
  if not (List.mem (String.lowercase_ascii app) Apps.Registry.extended_names) then
    reject "meta m_app: unknown application %S" app;
  if not (parses Apps.Registry.scale_of_name m.Trace.Codec.m_scale) then
    reject "meta m_scale: unknown scale %S" m.Trace.Codec.m_scale;
  if not (parses Lrc.Config.protocol_of_name m.Trace.Codec.m_protocol) then
    reject "meta m_protocol: unknown protocol %S" m.Trace.Codec.m_protocol;
  if not (Backends.known m.Trace.Codec.m_backend) then
    reject "meta m_backend: unknown backend %S" m.Trace.Codec.m_backend;
  match m.Trace.Codec.m_sim_jobs with
  | Some marker ->
      reject "meta m_sim_jobs: Some %d marks a recording on the removed sharded engine"
        marker
  | None -> ()

let record ?cost ?(cfg = Lrc.Config.default) ~app_name ~scale ~nprocs () =
  let app = Apps.Registry.make ~scale app_name in
  let meta = meta_of ~app_name ~scale ~nprocs cfg in
  let recorder = Trace.Sink.recorder meta in
  let cfg = { cfg with Lrc.Config.tracer = Some (Trace.Sink.sink recorder) } in
  let outcome = Driver.run ?cost ~cfg ~app ~nprocs () in
  (outcome, Trace.Sink.contents recorder)

type replay_result = {
  rr_meta : Trace.Codec.meta;
  rr_outcome : Driver.outcome;
  rr_divergence : Trace.Replay.divergence option;
  rr_races_match : bool;  (* live race set = the log's Race events *)
  rr_checksum_match : bool;  (* live memory checksum = the log's Run_end *)
}

let clean r = r.rr_divergence = None && r.rr_races_match && r.rr_checksum_match

let replay ?cost log =
  let decoded = Trace.Codec.decode log in
  let m = decoded.Trace.Codec.meta in
  check_replayable m;
  let app =
    Apps.Registry.make ~scale:(Apps.Registry.scale_of_name m.Trace.Codec.m_scale)
      m.Trace.Codec.m_app
  in
  let verifier = Trace.Replay.create decoded in
  let cfg =
    { (config_of_meta m) with Lrc.Config.tracer = Some (Trace.Replay.sink verifier) }
  in
  let outcome = Driver.run ?cost ~cfg ~app ~nprocs:m.Trace.Codec.m_nprocs () in
  let divergence = Trace.Replay.finish verifier in
  let log_races = Trace.Replay.races_of_log decoded in
  let races_match =
    List.length log_races = List.length outcome.Driver.races
    && List.for_all2 Proto.Race.equal log_races
         (Proto.Race.dedup outcome.Driver.races)
  in
  let checksum_match =
    match Trace.Replay.checksum_of_log decoded with
    | Some c -> c = outcome.Driver.mem_checksum
    | None -> false
  in
  {
    rr_meta = m;
    rr_outcome = outcome;
    rr_divergence = divergence;
    rr_races_match = races_match;
    rr_checksum_match = checksum_match;
  }

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
