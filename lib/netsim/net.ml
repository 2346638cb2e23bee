module Graph = Topo.Graph

let log_src = Logs.Src.create "kar.netsim" ~doc:"KAR network simulator events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type drop_reason =
  | Link_down
  | Queue_full
  | No_route
  | Ttl_exceeded

module Registry = Kar_obs.Registry

(* Immutable end-of-run snapshot over the registry counters; the live
   values are ordinary [netsim/*] registry cells. *)
type stats = {
  injected : int;
  delivered : int;
  dropped_link_down : int;
  dropped_queue_full : int;
  dropped_no_route : int;
  dropped_ttl : int;
  total_switch_hops : int;
  deflections : int;
  reencodes : int;
}

(* Handles for every hot-path counter: one unsafe int-array poke each, so
   the forwarding loop keeps its zero-minor-words property. *)
type counters = {
  c_injected : Registry.counter;
  c_delivered : Registry.counter;
  c_drop_link_down : Registry.counter;
  c_drop_queue_full : Registry.counter;
  c_drop_no_route : Registry.counter;
  c_drop_ttl : Registry.counter;
  c_switch_hops : Registry.counter;
  c_deflections : Registry.counter;
  c_reencodes : Registry.counter;
  g_queue_peak : Registry.gauge;
}

(* One direction of a link: a serialising transmitter behind a byte-bounded
   FIFO.  [dst] is the receiving node and [dst_port] its input port.  The
   transmitter is modelled by a free-at time ([busy_until], kept in the
   net-level float array so updating it per hop stays unboxed) instead of a
   busy flag + completion event: an idle channel forwards a packet with a
   single merged serialisation+propagation event, and only a backlogged
   channel schedules wake events to drain its queue. *)
type channel = {
  link_id : Graph.link_id;
  idx : int; (* index into [busy_until]: 2*link_id + direction *)
  dst : Graph.node;
  dst_port : int;
  rate_bps : float;
  delay_s : float;
  queue : Packet.t Queue.t;
  mutable queued_bytes : int;
  mutable wake_scheduled : bool;
  mutable epoch : int; (* bumped on failure: invalidates in-flight events *)
}

type t = {
  graph : Graph.t;
  queue_capacity_bytes : int;
  ttl : int;
  detection_delay_s : float;
  up : bool array; (* per link *)
  busy_until : float array; (* per channel; unboxed float array *)
  channels : channel array array; (* channels.(link).(dir) *)
  out_channel : channel array array; (* out_channel.(node).(port) *)
  handlers : handler option array;
  live : bool array array; (* live.(node).(port), as the data plane sees it *)
  engine : Engine.t;
  registry : Registry.t;
  counters : counters;
  pool : Packet.Pool.t;
  mutable next_uid : int; (* the [fresh_uid] stream *)
  uid_ctr : int array; (* per-node [alloc] uid streams *)
  (* Observability: [None] recorder (the default) keeps the hot path
     event-free; per-switch deflect/drive tallies are only maintained while
     a recorder is attached (classification costs an extra modulo). *)
  mutable recorder : Trace.Recorder.t option;
  switch_deflections : int array; (* per node *)
  switch_drives : int array; (* per node *)
  link_queue_drops : int array; (* per channel (2*link+dir) *)
}

and handler = t -> Graph.node -> Packet.t -> in_port:int -> unit

let make_counters r =
  (* explicit registration order: it is the snapshot column order *)
  let c_injected = Registry.counter r "netsim/injected" in
  let c_delivered = Registry.counter r "netsim/delivered" in
  let c_drop_link_down = Registry.counter r "netsim/drop-link-down" in
  let c_drop_queue_full = Registry.counter r "netsim/drop-queue-full" in
  let c_drop_no_route = Registry.counter r "netsim/drop-no-route" in
  let c_drop_ttl = Registry.counter r "netsim/drop-ttl" in
  let c_switch_hops = Registry.counter r "netsim/switch-hops" in
  let c_deflections = Registry.counter r "netsim/deflections" in
  let c_reencodes = Registry.counter r "netsim/reencodes" in
  let g_queue_peak = Registry.gauge r "netsim/queue-peak-bytes" in
  {
    c_injected;
    c_delivered;
    c_drop_link_down;
    c_drop_queue_full;
    c_drop_no_route;
    c_drop_ttl;
    c_switch_hops;
    c_deflections;
    c_reencodes;
    g_queue_peak;
  }

let build_channels graph =
  let n_links = Graph.n_links graph in
  let channel_of link dir =
    let far = if dir = 0 then link.Graph.ep1 else link.Graph.ep0 in
    {
      link_id = link.Graph.id;
      idx = (2 * link.Graph.id) + dir;
      dst = far.Graph.node;
      dst_port = far.Graph.port;
      rate_bps = link.Graph.rate_bps;
      delay_s = link.Graph.delay_s;
      queue = Queue.create ();
      queued_bytes = 0;
      wake_scheduled = false;
      epoch = 0;
    }
  in
  let channels =
    Array.init n_links (fun id ->
        let link = Graph.link graph id in
        [| channel_of link 0; channel_of link 1 |])
  in
  let out_channel =
    Array.init (Graph.n_nodes graph) (fun v ->
        Array.init (Graph.degree graph v) (fun p ->
            let link = Graph.link_at graph v p in
            let dir = if link.Graph.ep0.node = v then 0 else 1 in
            channels.(link.Graph.id).(dir)))
  in
  (channels, out_channel)

let create ~graph ~engine ?registry ?(queue_capacity_bytes = 1_048_576)
    ?(ttl = 128) ?(detection_delay_s = 0.0) () =
  let n_links = Graph.n_links graph in
  let n_nodes = Graph.n_nodes graph in
  let channels, out_channel = build_channels graph in
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  Registry.probe registry "engine/events" (fun () -> Engine.processed engine);
  Registry.probe registry "engine/pending" (fun () -> Engine.pending engine);
  Registry.probe registry "engine/heap-peak" (fun () -> Engine.heap_peak engine);
  let counters = make_counters registry in
  let pool = Packet.Pool.create ~registry () in
  {
    graph;
    queue_capacity_bytes;
    ttl;
    detection_delay_s;
    up = Array.make n_links true;
    busy_until = Array.make (2 * n_links) 0.0;
    channels;
    out_channel;
    handlers = Array.make n_nodes None;
    live =
      Array.init (Graph.n_nodes graph) (fun v ->
          Array.make (Graph.degree graph v) true);
    engine;
    registry;
    counters;
    pool;
    next_uid = 0;
    uid_ctr = Array.make n_nodes 0;
    recorder = None;
    switch_deflections = Array.make n_nodes 0;
    switch_drives = Array.make n_nodes 0;
    link_queue_drops = Array.make (2 * n_links) 0;
  }

let graph net = net.graph
let engine net = net.engine
let registry net = net.registry

let stats net =
  let c = net.counters in
  {
    injected = Registry.value c.c_injected;
    delivered = Registry.value c.c_delivered;
    dropped_link_down = Registry.value c.c_drop_link_down;
    dropped_queue_full = Registry.value c.c_drop_queue_full;
    dropped_no_route = Registry.value c.c_drop_no_route;
    dropped_ttl = Registry.value c.c_drop_ttl;
    total_switch_hops = Registry.value c.c_switch_hops;
    deflections = Registry.value c.c_deflections;
    reencodes = Registry.value c.c_reencodes;
  }

let ttl net = net.ttl

let set_recorder net r = net.recorder <- r
let recorder net = net.recorder
let note_deflect net v = net.switch_deflections.(v) <- net.switch_deflections.(v) + 1
let note_drive net v = net.switch_drives.(v) <- net.switch_drives.(v) + 1
let deflections_at net v = net.switch_deflections.(v)
let drives_at net v = net.switch_drives.(v)

let queue_drops_on net id =
  net.link_queue_drops.(2 * id) + net.link_queue_drops.((2 * id) + 1)

let reason_slug = function
  | Link_down -> "link_down"
  | Queue_full -> "queue_full"
  | No_route -> "no_route"
  | Ttl_exceeded -> "ttl"

let record_event net ~switch ~in_port ~out_port (packet : Packet.t) action =
  match net.recorder with
  | None -> ()
  | Some r ->
    Trace.Recorder.record r ~vtime:(Engine.now net.engine)
      ~uid:(Packet.uid packet) ~switch ~in_port ~out_port
      ~ttl:(net.ttl - Packet.hops packet)
      action

(* Drops are terminal: the packet goes back to the pool (a no-op for
   unpooled handles), so every loss path recycles its buffer. *)
let drop ?at ?(in_port = -1) net (packet : Packet.t) reason =
  Log.debug (fun m ->
      m "t=%.6f drop %a (%s)" (Engine.now net.engine) Packet.pp packet
        (match reason with
         | Link_down -> "link down"
         | Queue_full -> "queue full"
         | No_route -> "no route"
         | Ttl_exceeded -> "ttl"));
  (if net.recorder <> None then
     let switch = match at with Some v -> Graph.label net.graph v | None -> -1 in
     record_event net ~switch ~in_port ~out_port:(-1) packet
       (Trace.Event.Drop (reason_slug reason)));
  let c = net.counters in
  (match reason with
   | Link_down -> Registry.incr c.c_drop_link_down
   | Queue_full -> Registry.incr c.c_drop_queue_full
   | No_route -> Registry.incr c.c_drop_no_route
   | Ttl_exceeded -> Registry.incr c.c_drop_ttl);
  Packet.Pool.release net.pool packet

let delivered ?(in_port = -1) net (packet : Packet.t) =
  record_event net
    ~switch:(Graph.label net.graph (Packet.dst packet))
    ~in_port ~out_port:(-1) packet Trace.Event.Deliver;
  Registry.incr net.counters.c_delivered

let count_deflection net = Registry.incr net.counters.c_deflections
let count_reencode net = Registry.incr net.counters.c_reencodes
let count_hop net = Registry.incr net.counters.c_switch_hops

let set_node_handler net node h = net.handlers.(node) <- Some h

let fresh_uid net =
  let uid = net.next_uid in
  net.next_uid <- uid + 1;
  uid

let link_up net id = net.up.(id)

(* Pooled packets draw their uid from a per-source-node stream: the k-th
   allocation at [node] gets uid [k * n_nodes + node].  Committed trace
   fixtures record these uids, so the numbering is part of the output
   format. *)
let alloc net ~src ~dst ~size_bytes ~route_id payload =
  let p = Packet.Pool.acquire net.pool in
  let k = net.uid_ctr.(src) in
  net.uid_ctr.(src) <- k + 1;
  let uid = (k * Array.length net.uid_ctr) + src in
  Packet.stamp p ~uid ~src ~dst ~size_bytes ~route_id
    ~born:(Engine.now net.engine) payload;
  p

let free net p = Packet.Pool.release net.pool p
let pool net = net.pool
let pool_in_flight net = Packet.Pool.in_flight net.pool

let deliver net node packet ~in_port =
  match net.handlers.(node) with
  | Some h -> h net node packet ~in_port
  | None ->
    if Packet.dst packet = node then begin
      delivered ~in_port net packet;
      Packet.Pool.release net.pool packet
    end
    else drop ~at:node ~in_port net packet No_route

(* Put a packet on the wire of an idle channel: one merged event covers
   serialisation and propagation (the transmitter frees at [busy_until];
   the packet arrives [delay_s] later).  A failure during either phase is
   caught by the epoch check when the event fires. *)
let transmit net ch packet =
  let tx_time = float_of_int (Packet.size_bytes packet * 8) /. ch.rate_bps in
  net.busy_until.(ch.idx) <- Engine.now net.engine +. tx_time;
  let epoch = ch.epoch in
  ignore
    (Engine.schedule_in net.engine (tx_time +. ch.delay_s) (fun () ->
         if ch.epoch = epoch then deliver net ch.dst packet ~in_port:ch.dst_port
         else drop net packet Link_down))

(* Backlogged channels drain via wake events at the transmitter's free
   time.  [wake_scheduled] dedups the common case; stray extra wakes (after
   a failure reset the flag's event) are harmless because service is guarded
   by [busy_until] and FIFO order by the single queue. *)
let rec wake net ch () =
  ch.wake_scheduled <- false;
  if
    net.up.(ch.link_id)
    && (not (Queue.is_empty ch.queue))
    && Engine.now net.engine >= net.busy_until.(ch.idx)
  then begin
    let packet = Queue.pop ch.queue in
    ch.queued_bytes <- ch.queued_bytes - Packet.size_bytes packet;
    transmit net ch packet
  end;
  schedule_wake net ch

and schedule_wake net ch =
  if (not ch.wake_scheduled) && (not (Queue.is_empty ch.queue)) && net.up.(ch.link_id)
  then begin
    ch.wake_scheduled <- true;
    let now = Engine.now net.engine in
    let t = net.busy_until.(ch.idx) in
    ignore (Engine.schedule_at net.engine (if t > now then t else now) (wake net ch))
  end

let send net ~from_node ~port packet =
  let ch = net.out_channel.(from_node).(port) in
  if not net.up.(ch.link_id) then drop ~at:from_node net packet Link_down
  else if ch.queued_bytes + Packet.size_bytes packet > net.queue_capacity_bytes
  then begin
    net.link_queue_drops.(ch.idx) <- net.link_queue_drops.(ch.idx) + 1;
    drop ~at:from_node net packet Queue_full
  end
  else if
    Queue.is_empty ch.queue
    && Engine.now net.engine >= net.busy_until.(ch.idx)
  then transmit net ch packet
  else begin
    Queue.push packet ch.queue;
    ch.queued_bytes <- ch.queued_bytes + Packet.size_bytes packet;
    Registry.set_max net.counters.g_queue_peak ch.queued_bytes;
    schedule_wake net ch
  end

let inject net ~at packet =
  Registry.incr net.counters.c_injected;
  record_event net ~switch:(Graph.label net.graph at) ~in_port:(-1)
    ~out_port:(-1) packet Trace.Event.Inject;
  deliver net at packet ~in_port:(-1)

(* --- administration: failures, repairs, detection --------------------- *)

let schedule_admin net ~at f = ignore (Engine.schedule_at net.engine at f)

let set_cached_up net id value =
  let link = Graph.link net.graph id in
  List.iter
    (fun ep -> net.live.(ep.Graph.node).(ep.Graph.port) <- value)
    [ link.Graph.ep0; link.Graph.ep1 ]

(* Liveness as the data plane *sees* it lags physical state by the
   detection delay (loss-of-signal / BFD time): until detection, switches
   keep selecting the dead port and those packets black-hole. *)
let schedule_detection net id =
  if net.detection_delay_s <= 0.0 then set_cached_up net id net.up.(id)
  else
    ignore
      (Engine.schedule_in net.engine net.detection_delay_s (fun () ->
           set_cached_up net id net.up.(id)))

let fail_link net id =
  if net.up.(id) then begin
    Log.info (fun m ->
        let l = Graph.link net.graph id in
        m "t=%.6f link %d (SW%d-SW%d) failed" (Engine.now net.engine) id
          (Graph.label net.graph l.Graph.ep0.Graph.node)
          (Graph.label net.graph l.Graph.ep1.Graph.node));
    net.up.(id) <- false;
    schedule_detection net id;
    Array.iter
      (fun ch ->
        ch.epoch <- ch.epoch + 1;
        net.busy_until.(ch.idx) <- 0.0;
        Queue.iter (fun p -> drop net p Link_down) ch.queue;
        Queue.clear ch.queue;
        ch.queued_bytes <- 0)
      net.channels.(id)
  end

let repair_link net id =
  if not net.up.(id) then begin
    Log.info (fun m -> m "t=%.6f link %d repaired" (Engine.now net.engine) id);
    net.up.(id) <- true;
    schedule_detection net id;
    Array.iter (fun ch -> schedule_wake net ch) net.channels.(id)
  end

let schedule_failure net id ~at ~duration =
  ignore (Engine.schedule_at net.engine at (fun () -> fail_link net id));
  ignore (Engine.schedule_at net.engine (at +. duration) (fun () -> repair_link net id))

let live_ports net node = net.live.(node)

(* Setup-time code (e.g. a TCP flow's kickoff) enters the timeline here;
   a start time not in the future runs at once. *)
let schedule_at_node net _node ~at f =
  if at <= Engine.now net.engine then f ()
  else ignore (Engine.schedule_at net.engine at f)

let run_until net t_stop = Engine.run_until net.engine t_stop
