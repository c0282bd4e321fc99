(** Simulated network: point-to-point messages with a latency + bandwidth
    cost model (CVM's UDP protocols on 155 Mbit ATM).

    By default the wire is reliable and per-link FIFO. With [~transport],
    a {!Transport} instance is layered between the senders and a wire
    that an active {!Fault} plan may drop, duplicate, reorder or delay —
    the layer above still sees exactly-once FIFO delivery, but wire bytes
    (retransmissions, acks, duplicates) are charged to {!Stats}.

    Messages are delivered to a per-node handler at delivery time — the
    analogue of CVM servicing requests from a SIGIO handler — so protocol
    requests are serviced even while the node's application coroutine is
    computing or blocked. *)

type 'msg t

val create :
  ?rng:Rng.t ->
  ?fault:Fault.plan ->
  ?fault_rng:Rng.t ->
  ?transport:Transport.config ->
  ?probe:Probe.t ->
  ?describe:('msg -> string) ->
  Engine.t ->
  Cost.t ->
  Stats.t ->
  nodes:int ->
  size_of:('msg -> int) ->
  'msg t
(** [size_of] gives the payload size in bytes; it drives both the bandwidth
    cost model and the byte counters in {!Stats}. [rng] feeds the optional
    delivery jitter ({!Cost.t.jitter_ns}) and is independent of
    [fault_rng], which seeds the fault plan's per-link streams — enabling
    fault injection does not perturb the jitter draws. An active [fault]
    plan requires [transport] (raises [Invalid_argument] otherwise);
    [transport] alone runs the reliable transport over a fault-free wire.

    [probe] observes sends, deliveries and per-frame fault outcomes (and
    is forwarded to the transport for retransmit/ack events); [describe]
    supplies the payload tag those events carry. Probes never perturb
    delivery order or timing. *)

val node_count : 'msg t -> int

val set_handler : 'msg t -> node:int -> ('msg -> unit) -> unit
(** Install the delivery handler for a node. Without a handler, messages
    queue for {!recv}. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Asynchronous send; delivery happens after latency + bandwidth delay.
    A self-send is delivered after {!Cost.t.loopback_ns} — loopback never
    touches the wire, so it is lossless even under an aggressive fault
    plan. *)

val recv : 'msg t -> node:int -> 'msg
(** Blocking receive for handler-less nodes. Assumes the calling process's
    pid equals the node id (the cluster spawns one process per node). *)

val transport : 'msg t -> 'msg Transport.t option
(** The transport instance, when one was configured (introspection for
    tests and diagnostics). *)

val diagnostics : 'msg t -> string list
(** Wire frames in flight plus the transport's per-link report — suitable
    for {!Engine.add_diagnostic}. *)
