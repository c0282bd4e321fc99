(* A simulated DSM cluster: the engine, the network, one node per
   processor, and the run driver that spawns the SPMD application body on
   every node. *)

type t = { env : Coherence.Proc.env; nodes : Node.t array; procs : Coherence.Proc.t array }

let create ?(cost = Sim.Cost.default) ?(cfg = Config.default) ~nprocs ~pages () =
  if nprocs <= 0 then invalid_arg "Cluster.create: need at least one processor";
  (* under [stores_from_diffs] the multi-writer diffs, not the store
     instrumentation, provide the write bitmaps (section 6.5) *)
  let stores_from_diffs =
    cfg.Config.stores_from_diffs && cfg.Config.protocol = Config.Multi_writer
  in
  let env = Coherence.Proc.create_env ~cost ~cfg ~check_stores:(not stores_from_diffs) ~pages in
  let transport =
    match (cfg.Config.transport, Sim.Fault.active cfg.Config.fault) with
    | (Some _ as tr), _ -> tr
    | None, true -> Some Sim.Transport.default_config
    | None, false -> None
  in
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
  let engine = env.Coherence.Proc.engine in
  let net =
    Sim.Net.create ~rng:jitter_rng ~fault:(Sim.Fault.validate cfg.Config.fault)
      ~fault_rng ?transport ?probe:env.Coherence.Proc.probe ~describe:Message.describe engine
      cost env.Coherence.Proc.stats ~nodes:nprocs ~size_of
  in
  let nodes = Array.init nprocs (fun id -> Node.create env net ~id ~nprocs) in
  Array.iteri
    (fun id node -> Sim.Net.set_handler net ~node:id (Node.handle_message node))
    nodes;
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  Sim.Engine.add_diagnostic engine (fun () ->
      Node.service_diagnostics nodes.(0));
  { env; nodes; procs = Array.map Node.proc nodes }

let alloc t ?name ?align bytes =
  Coherence.Proc.alloc t.procs ~who:"Cluster.alloc" ?name ?align bytes

let run t ~body =
  Array.iter
    (fun node ->
      ignore (Sim.Engine.spawn t.env.Coherence.Proc.engine (fun _pid -> body (Node.view node))))
    t.nodes;
  Sim.Engine.run t.env.Coherence.Proc.engine

let races t = Proto.Race.dedup t.env.Coherence.Proc.races

let trace t = List.rev t.env.Coherence.Proc.trace

let timed_trace t = List.rev t.env.Coherence.Proc.timed

let sync_trace t = Option.map Coherence.Sync_trace.of_recorder t.env.Coherence.Proc.recorder

let race_sites t (race : Proto.Race.t) =
  (* With [retain_sites]: the source sites of both halves of a race. *)
  let side (interval, kind) =
    Node.retained_site t.nodes.(interval.Proto.Interval.proc) ~interval ~page:race.page
      ~word:race.word ~kind
  in
  (side race.first, side race.second)

let sim_time t = Sim.Engine.now t.env.Coherence.Proc.engine

let memory_checksum t =
  (* For each page, the first coherent copy found on any node. Which node
     caches which page is timing-dependent (and irrelevant); the coherent
     bytes are not. *)
  Coherence.Proc.memory_digest t.env (fun page ->
      Array.find_map (fun node -> Node.coherent_page_raw node page) t.nodes)

let stats t = t.env.Coherence.Proc.stats
let symtab t = t.env.Coherence.Proc.symtab

let backend ?cost ?cfg ~nprocs ~pages () =
  let t = create ?cost ?cfg ~nprocs ~pages () in
  Coherence.Backend.make t.env ~name:"lrc" t.procs ~alloc:(alloc t)
    ~run:(fun body -> run t ~body)
    ~memory_checksum:(fun () -> memory_checksum t)
