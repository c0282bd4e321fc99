(* A simulated DSM cluster: the engine, the network, one node per
   processor, and the run driver that spawns the SPMD application body on
   every node. *)

type t = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  nodes : Node.t array;
  runtime : Node.runtime;
  races : Proto.Race.t list ref;
  trace : (int * Racedetect.Oracle.event) list ref;
  recorder : Coherence.Sync_trace.recorder option;
  symtab : Mem.Symtab.t;
  mutable alloc_next : int;  (* pre-run shared allocation cursor *)
}

let create ?(cost = Sim.Cost.default) ?(cfg = Config.default) ~nprocs ~pages () =
  if nprocs <= 0 then invalid_arg "Cluster.create: need at least one processor";
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let geometry = Mem.Geometry.of_cost cost ~pages in
  let races = ref [] in
  let trace = ref [] in
  let timed = ref [] in
  let recorder =
    if cfg.Config.record_sync then Some (Coherence.Sync_trace.new_recorder ()) else None
  in
  let symtab = Mem.Symtab.create () in
  let transport =
    match (cfg.Config.transport, Sim.Fault.active cfg.Config.fault) with
    | (Some _ as tr), _ -> tr
    | None, true -> Some Sim.Transport.default_config
    | None, false -> None
  in
  let runtime =
    {
      Node.engine;
      cost;
      stats;
      cfg;
      geometry;
      net = None;
      races;
      trace;
      timed;
      recorder;
      symtab;
    }
  in
  let nodes = Array.init nprocs (fun id -> Node.create runtime ~id ~nprocs) in
  let size_of = Message.size ~with_read_notices:cfg.Config.detect in
  (* The jitter and fault-plan RNGs are split from one root so they are
     independent streams: enabling fault injection does not perturb the
     jitter draws of an otherwise identical run. *)
  let net_seed =
    match cfg.Config.net_seed with Some s -> s | None -> cfg.Config.seed
  in
  let root_rng = Sim.Rng.create ~seed:net_seed in
  let jitter_rng = Sim.Rng.split root_rng in
  let fault_rng = Sim.Rng.split root_rng in
  (* Sim-level probe: translate the engine/net/transport observer events
     into trace events. Protocol-level events (vector clocks, intervals,
     races) are emitted by {!Node} directly, where the context lives. *)
  let probe =
    match cfg.Config.tracer with
    | None -> None
    | Some sink ->
        Some
          (fun (ev : Sim.Probe.event) ->
            let event =
              match ev with
              | Sim.Probe.Send { src; dst; bytes; tag } ->
                  Trace.Event.Msg_send { src; dst; kind = tag; bytes }
              | Sim.Probe.Deliver { src; dst; bytes; tag } ->
                  Trace.Event.Msg_deliver { src; dst; kind = tag; bytes }
              | Sim.Probe.Fault { src; dst; outcome } ->
                  let outcome =
                    match outcome with
                    | Sim.Probe.Passed { copies; extra_delay_ns } ->
                        Trace.Event.Passed { copies; extra_delay_ns }
                    | Sim.Probe.Dropped -> Trace.Event.Dropped
                    | Sim.Probe.Blackholed -> Trace.Event.Blackholed
                  in
                  Trace.Event.Fault { src; dst; outcome }
              | Sim.Probe.Partition { a; b; up } -> Trace.Event.Partition { a; b; up }
              | Sim.Probe.Retransmit { src; dst; seq } ->
                  Trace.Event.Retransmit { src; dst; seq }
              | Sim.Probe.Ack_tx { src; dst; cum } -> Trace.Event.Ack { src; dst; cum }
              | Sim.Probe.Link_failure { src; dst } ->
                  Trace.Event.Link_failure { src; dst }
              | Sim.Probe.Proc_block { pid; label } ->
                  Trace.Event.Proc_block { proc = pid; label }
              | Sim.Probe.Proc_resume { pid } ->
                  Trace.Event.Proc_resume { proc = pid }
              | Sim.Probe.Proc_finish { pid } ->
                  Trace.Event.Proc_finish { proc = pid }
            in
            Trace.Sink.emit sink ~time:(Sim.Engine.now engine) event)
  in
  Sim.Engine.set_probe engine probe;
  let net =
    Sim.Net.create ~rng:jitter_rng ~fault:(Sim.Fault.validate cfg.Config.fault)
      ~fault_rng ?transport ?probe ~describe:Message.describe engine cost stats
      ~nodes:nprocs ~size_of
  in
  runtime.Node.net <- Some net;
  Array.iteri
    (fun id node -> Sim.Net.set_handler net ~node:id (Node.handle_message node))
    nodes;
  Sim.Engine.set_stall_budget engine cfg.Config.watchdog_ns;
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  Sim.Engine.add_diagnostic engine (fun () ->
      Node.service_diagnostics nodes.(0));
  {
    engine;
    cost;
    stats;
    cfg;
    geometry;
    nodes;
    runtime;
    races;
    trace;
    recorder;
    symtab;
    alloc_next = geometry.Mem.Geometry.base;
  }

let node t id = t.nodes.(id)
let nprocs t = Array.length t.nodes

let alloc t ?name ?(align = 0) bytes =
  (* Pre-run shared allocation, visible to every node (the usual way the
     applications lay out their shared data before the workers start). *)
  if bytes < 0 then invalid_arg "Cluster.alloc";
  let word = t.geometry.Mem.Geometry.word_size in
  let round v quantum = (v + quantum - 1) / quantum * quantum in
  let start = if align > 0 then round t.alloc_next align else round t.alloc_next word in
  let next = start + round bytes word in
  if next > Mem.Geometry.limit t.geometry then
    invalid_arg "Cluster.alloc: shared segment exhausted";
  (match name with
  | Some name -> Mem.Symtab.register t.symtab ~name ~base:start ~bytes
  | None -> ());
  t.alloc_next <- next;
  (* keep the per-node allocators consistent for later Node.malloc calls *)
  Array.iter (fun node -> Node.set_alloc_next node next) t.nodes;
  start

let run t ~body =
  Array.iter
    (fun node -> ignore (Sim.Engine.spawn t.engine (fun _pid -> body (Node.view node))))
    t.nodes;
  Sim.Engine.run t.engine

let races t = Proto.Race.dedup !(t.races)

let trace t = List.rev !(t.trace)

let timed_trace t = List.rev !(t.runtime.Node.timed)

let sync_trace t =
  match t.recorder with
  | Some r -> Some (Coherence.Sync_trace.of_recorder r)
  | None -> None

let race_sites t (race : Proto.Race.t) =
  (* With [retain_sites]: the source sites of both halves of a race. *)
  let side (interval, kind) =
    Node.retained_site t.nodes.(interval.Proto.Interval.proc) ~interval ~page:race.page
      ~word:race.word ~kind
  in
  (side race.first, side race.second)

let sim_time t = Sim.Engine.now t.engine

let memory_checksum t =
  (* FNV-1a over the final shared-memory contents: for each page, the
     first coherent copy found on any node. Which node caches which page
     is timing-dependent (and irrelevant); the coherent bytes are not. *)
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  for page = 0 to t.geometry.Mem.Geometry.pages - 1 do
    match Array.find_map (fun node -> Node.coherent_page_raw node page) t.nodes with
    | None -> mix 0xFF
    | Some raw ->
        mix 0x01;
        for i = 0 to Bytes.length raw - 1 do
          mix (Char.code (Bytes.unsafe_get raw i))
        done
  done;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let stats t = t.stats
let symtab t = t.symtab
let geometry t = t.geometry
let config t = t.cfg
