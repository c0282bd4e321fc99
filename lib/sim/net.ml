(* Simulated network: point-to-point messages with a latency + bandwidth
   cost model, standing in for CVM's end-to-end UDP protocols on 155 Mbit
   ATM.

   Two modes:

   - Reliable wire (default, the seed behaviour): every message is
     delivered exactly once; per-link FIFO order is enforced even under
     delivery jitter.

   - Lossy wire + reliable transport: an active {!Fault} plan may drop,
     duplicate, reorder or delay every wire frame (and acks!), and
     {!Transport} restores the exactly-once FIFO view above it with
     sequence numbers, cumulative acks and capped exponential-backoff
     retransmission. Byte accounting happens per wire frame, so
     retransmitted bytes are charged.

   Delivery invokes the destination node's handler directly, at delivery
   time, the way CVM services requests from a SIGIO handler: protocol
   requests are serviced even while the node's application code is blocked
   or computing. Handlers route replies to the waiting application
   coroutine themselves. Self-sends use the loopback path: no wire, no
   faults, {!Cost.t.loopback_ns} delay. *)

type 'msg node = {
  id : int;
  inbox : 'msg Queue.t;
  mutable handler : ('msg -> unit) option;
  mutable waiter : Engine.pid option;
}

type 'msg t = {
  engine : Engine.t;
  cost : Cost.t;
  stats : Stats.t;
  nodes : 'msg node array;
  size_of : 'msg -> int;
  describe : 'msg -> string;  (* payload tag for the probe's send/deliver events *)
  rng : Rng.t;  (* jitter stream — independent from the fault streams *)
  last_delivery : int array;  (* per (src, dst) link: preserve FIFO under jitter *)
  in_flight : int array;  (* per link: wire frames scheduled, not yet delivered *)
  fault : Fault.t option;
  probe : Probe.t option;  (* pure observer; never perturbs delivery *)
  partition_down : bool array;  (* last observed phase of each partition window *)
  mutable transport : 'msg Transport.t option;
}

let node_count t = Array.length t.nodes

let emit_probe t event = match t.probe with Some f -> f event | None -> ()

(* Partition windows have no event of their own on the wire; report each
   open/close transition at the first wire activity that observes it.
   Lazy observation keeps the event queue identical with and without a
   probe installed. *)
let note_partitions t =
  match (t.fault, t.probe) with
  | Some fault, Some _ ->
      let now = Engine.now t.engine in
      List.iteri
        (fun i (p : Fault.partition) ->
          let down = now >= p.Fault.p_from_ns && now < p.Fault.p_until_ns in
          if down <> t.partition_down.(i) then begin
            t.partition_down.(i) <- down;
            emit_probe t
              (Probe.Partition { a = p.Fault.p_a; b = p.Fault.p_b; up = not down })
          end)
        (Fault.windows fault)
  | _ -> ()

let set_handler t ~node f = t.nodes.(node).handler <- Some f

let deliver t node msg =
  match node.handler with
  | Some f -> f msg
  | None -> (
      Queue.add msg node.inbox;
      match node.waiter with
      | Some pid ->
          node.waiter <- None;
          Engine.wake t.engine pid
      | None -> ())

let base_delay t ~bytes =
  let delay = Cost.message_ns t.cost ~bytes in
  if t.cost.Cost.jitter_ns > 0 then delay + Rng.int t.rng (t.cost.Cost.jitter_ns + 1)
  else delay

let link_of t ~src ~dst = (src * Array.length t.nodes) + dst

(* Reliable delivery with the per-link FIFO clamp (seed behaviour). *)
let deliver_ordered t ~src ~dst ~delay msg =
  let link = link_of t ~src ~dst in
  let at = max (Engine.now t.engine + delay) (t.last_delivery.(link) + 1) in
  t.last_delivery.(link) <- at;
  t.in_flight.(link) <- t.in_flight.(link) + 1;
  let node = t.nodes.(dst) in
  Engine.schedule t.engine ~at (fun () ->
      t.in_flight.(link) <- t.in_flight.(link) - 1;
      emit_probe t
        (Probe.Deliver { src; dst; bytes = t.size_of msg; tag = t.describe msg });
      deliver t node msg)

let send t ~src ~dst msg =
  if dst < 0 || dst >= Array.length t.nodes then invalid_arg "Net.send: bad destination";
  let bytes = t.size_of msg in
  emit_probe t (Probe.Send { src; dst; bytes; tag = t.describe msg });
  t.stats.Stats.messages <- t.stats.Stats.messages + 1;
  if src = dst then begin
    (* loopback: protocol stack only — no wire, no faults, no transport *)
    t.stats.Stats.fragments <- t.stats.Stats.fragments + Cost.fragments t.cost ~bytes;
    t.stats.Stats.bytes <- t.stats.Stats.bytes + Cost.wire_bytes t.cost ~bytes;
    deliver_ordered t ~src ~dst ~delay:t.cost.Cost.loopback_ns msg
  end
  else
    match t.transport with
    | Some transport -> Transport.send transport ~src ~dst msg
    | None ->
        t.stats.Stats.fragments <- t.stats.Stats.fragments + Cost.fragments t.cost ~bytes;
        t.stats.Stats.bytes <- t.stats.Stats.bytes + Cost.wire_bytes t.cost ~bytes;
        deliver_ordered t ~src ~dst ~delay:(base_delay t ~bytes) msg

let create ?(rng = Rng.create ~seed:0) ?(fault = Fault.none) ?fault_rng ?transport ?probe
    ?(describe = fun _ -> "msg") engine cost stats ~nodes ~size_of =
  if Fault.active fault && transport = None then
    invalid_arg "Net.create: an active fault plan requires the reliable transport";
  let t =
    {
      engine;
      cost;
      stats;
      size_of;
      describe;
      rng;
      last_delivery = Array.make (nodes * nodes) 0;
      in_flight = Array.make (nodes * nodes) 0;
      fault =
        (if transport = None then None
         else
           let frng =
             match fault_rng with Some r -> r | None -> Rng.create ~seed:1
           in
           Some (Fault.create ~nodes ~rng:frng fault));
      probe;
      partition_down = Array.make (List.length fault.Fault.partitions) false;
      transport = None;
      nodes = Array.init nodes (fun id -> { id; inbox = Queue.create (); handler = None; waiter = None });
    }
  in
  (match transport with
  | None -> ()
  | Some cfg ->
      let payload_bytes = size_of in
      (* the wire below the transport: per-frame byte accounting, fault
         verdicts, unclamped delivery *)
      let wire_send ~src ~dst frame =
        let bytes = Transport.frame_bytes cfg ~payload_bytes frame in
        stats.Stats.fragments <- stats.Stats.fragments + Cost.fragments cost ~bytes;
        stats.Stats.bytes <- stats.Stats.bytes + Cost.wire_bytes cost ~bytes;
        note_partitions t;
        let verdict =
          match t.fault with
          | Some fault -> Fault.judge_verdict fault ~src ~dst ~now:(Engine.now engine)
          | None -> { Fault.v_delays = [ 0 ]; v_dropped = false; v_partitioned = false }
        in
        let verdicts = verdict.Fault.v_delays in
        (* report only frames the plan actually touched *)
        (if verdict.Fault.v_partitioned then
           emit_probe t (Probe.Fault { src; dst; outcome = Probe.Blackholed })
         else if verdict.Fault.v_dropped && verdicts = [] then
           emit_probe t (Probe.Fault { src; dst; outcome = Probe.Dropped })
         else
           match verdicts with
           | first :: rest when first > 0 || rest <> [] || verdict.Fault.v_dropped ->
               emit_probe t
                 (Probe.Fault
                    {
                      src;
                      dst;
                      outcome =
                        Probe.Passed
                          { copies = List.length verdicts; extra_delay_ns = first };
                    })
           | _ -> ());
        (match verdicts with
        | [] -> stats.Stats.frames_dropped <- stats.Stats.frames_dropped + 1
        | _ :: extra_copies ->
            stats.Stats.frames_duplicated <-
              stats.Stats.frames_duplicated + List.length extra_copies);
        let link = link_of t ~src ~dst in
        List.iter
          (fun extra ->
            let at = Engine.now engine + base_delay t ~bytes + extra in
            t.in_flight.(link) <- t.in_flight.(link) + 1;
            Engine.schedule engine ~at (fun () ->
                t.in_flight.(link) <- t.in_flight.(link) - 1;
                match t.transport with
                | Some tr -> Transport.wire_receive tr ~src ~dst frame
                | None -> ()))
          verdicts
      in
      let deliver_up ~src ~dst payload =
        emit_probe t
          (Probe.Deliver { src; dst; bytes = t.size_of payload; tag = t.describe payload });
        deliver t t.nodes.(dst) payload
      in
      t.transport <-
        Some (Transport.create ?probe cfg engine stats ~nodes ~wire_send ~deliver:deliver_up));
  t

(* Blocking receive for nodes that drain their inbox from application code
   (used by tests and simple examples; the DSM uses handlers instead). *)
let recv t ~node:id =
  let node = t.nodes.(id) in
  let rec wait () =
    match Queue.take_opt node.inbox with
    | Some msg -> msg
    | None ->
        node.waiter <- Some id;
        Engine.block ~label:(Printf.sprintf "net recv at node %d" id);
        wait ()
  in
  wait ()

let transport t = t.transport

let diagnostics t =
  let n = Array.length t.nodes in
  let wire_lines = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      let inflight = t.in_flight.(link_of t ~src ~dst) in
      if inflight > 0 then
        wire_lines :=
          Printf.sprintf "link %d->%d: %d frame(s) in flight on the wire" src dst inflight
          :: !wire_lines
    done
  done;
  let transport_lines =
    match t.transport with Some tr -> Transport.diagnostics tr | None -> []
  in
  !wire_lines @ transport_lines
