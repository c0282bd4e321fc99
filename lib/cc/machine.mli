(** A snooping-bus cache-coherent machine running the online race
    detector off bus-observed coherence events.

    Same programming model as the LRC cluster ({!Coherence.Node.t}
    views, SPMD [run]), but consistency is maintained by hardware-style
    cache coherence over a shared bus instead of DSM messages: MESI
    invalidates remote copies on write, Dragon broadcasts word updates.
    Data lives in one coherent memory image; per-processor caches model
    cost and traffic (hits, fills, invalidations, updates, writebacks),
    each bus transaction paying arbitration, transfer, and supplier
    latency through the simulation engine.

    Not supported (rejected or ignored at creation): fault injection and
    the reliable transport (no lossy wire on a bus — [invalid_arg]),
    lock-grant replay, interval GC, diff-based stores, and site
    retention. *)

type protocol = Mesi | Dragon

val backend :
  ?cost:Sim.Cost.t ->
  ?cfg:Coherence.Config.t ->
  protocol:protocol ->
  nprocs:int ->
  pages:int ->
  unit ->
  Coherence.Backend.t
(** Package a fresh machine behind the backend interface; [name] is
    ["mesi"] or ["dragon"]. *)
