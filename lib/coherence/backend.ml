(* A running coherence backend, as the driver and the test harnesses see
   it: one simulated machine (engine, shared segment, [nprocs] processor
   handles) plus the observation surface the detection/trace/bench stack
   consumes — races, the oracle event log, the recorded lock-grant order,
   statistics, the final-memory digest.

   Backends are first-class records rather than a functor or a registry
   of side-effecting modules: [Backends.create] dispatches on the
   configured backend name and returns one of these, so unlinked-module
   initialization order can never decide which backends exist. *)

type observer = Proc.observer

type t = {
  name : string;  (* registry id: "lrc", "mesi", "dragon" *)
  nprocs : int;
  geometry : Mem.Geometry.t;
  config : Config.t;
  stats : Sim.Stats.t;
  symtab : Mem.Symtab.t;
  alloc : ?name:string -> ?align:int -> int -> int;
      (* pre-run shared allocation, visible to every processor *)
  run : (Node.t -> unit) -> unit;
      (* spawn one process per node running the body and drive the
         simulation to completion *)
  races : unit -> Proto.Race.t list;
      (* deduplicated race reports from every barrier epoch *)
  trace : unit -> (int * Racedetect.Oracle.event) list;
      (* the access/synchronization log, when [record_trace] was set *)
  timed_trace : unit -> (int * int * Racedetect.Oracle.event) list;
  sync_trace : unit -> Sync_trace.t option;
      (* the recorded lock-grant order, when [record_sync] was set *)
  sim_time : unit -> int;  (* final simulated time, ns *)
  memory_checksum : unit -> int;
      (* FNV-1a digest of the coherent shared-memory image *)
  set_access_observer : int -> observer -> unit;
      (* hook every instrumented shared access of one processor (watch
         mode, paper section 6.1) *)
}

(* The observation surface every backend derives the same way from its
   run-wide state and processors. *)
let make (env : Proc.env) ~name (procs : Proc.t array) ~alloc ~run ~memory_checksum =
  {
    name;
    nprocs = Array.length procs;
    geometry = env.Proc.geometry;
    config = env.Proc.cfg;
    stats = env.Proc.stats;
    symtab = env.Proc.symtab;
    alloc;
    run;
    races = (fun () -> Proto.Race.dedup env.Proc.races);
    trace = (fun () -> List.rev env.Proc.trace);
    timed_trace = (fun () -> List.rev env.Proc.timed);
    sync_trace = (fun () -> Option.map Sync_trace.of_recorder env.Proc.recorder);
    sim_time = (fun () -> Sim.Engine.now env.Proc.engine);
    memory_checksum;
    set_access_observer =
      (fun id observer -> procs.(id).Proc.access_observer <- Some observer);
  }
