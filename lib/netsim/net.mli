(** The simulated network: links with rate/delay/queues, link failures, and
    per-node packet handlers.

    Each undirected {!Topo.Graph.link} is simulated as two independent
    directed channels.  A channel transmits one packet at a time
    (store-and-forward: serialisation at [rate_bps], then propagation after
    [delay_s]) and queues up to [queue_capacity_bytes] behind the
    transmitter, dropping from the tail beyond that.

    Node behaviour is pluggable: {!set_node_handler} assigns the callback
    run when a packet arrives at a node.  The KAR switch behaviour lives in
    {!Karnet}; hosts are assigned by the workload/TCP layers. *)

type t

(** The simulator's log source (["kar.netsim"]): link failures and repairs
    at [Info], per-packet drops at [Debug].  Silent unless the application
    sets up a [Logs] reporter. *)
val log_src : Logs.src

(** Reasons for packet loss, tallied in {!stats}. *)
type drop_reason =
  | Link_down (** sent into a failed link, or queued there when it failed *)
  | Queue_full
  | No_route (** the forwarding decision was [Drop] *)
  | Ttl_exceeded

(** An immutable snapshot of the [netsim/*] registry counters (the live
    values are {!Kar_obs.Registry} cells; see {!registry}). *)
type stats = {
  injected : int;
  delivered : int; (** packets consumed by a host handler *)
  dropped_link_down : int;
  dropped_queue_full : int;
  dropped_no_route : int;
  dropped_ttl : int;
  total_switch_hops : int; (** forwarding decisions taken at core switches *)
  deflections : int; (** forwarding decisions that deflected *)
  reencodes : int; (** stranded packets re-encoded at an edge *)
}

(** [handler net node packet ~in_port] consumes a packet arriving at
    [node] via [in_port] ([-1] for locally injected packets). *)
type handler = t -> Topo.Graph.node -> Packet.t -> in_port:int -> unit

(** [create ~graph ~engine ()] builds an idle network; all links start up.
    [queue_capacity_bytes] defaults to 1 MiB per channel (Mininet-like deep
    queues); [ttl] (maximum switch hops per packet) defaults to 128.
    [detection_delay_s] (default 0: oracle detection, the paper's implicit
    assumption) delays the moment switches {e observe} a liveness change:
    until then they keep forwarding into a dead link and those packets are
    lost — the loss-of-signal / BFD window of a real deployment.
    [registry] is the metrics registry the network's counters, gauges and
    engine probes register on (a fresh private registry when omitted). *)
val create :
  graph:Topo.Graph.t ->
  engine:Engine.t ->
  ?registry:Kar_obs.Registry.t ->
  ?queue_capacity_bytes:int ->
  ?ttl:int ->
  ?detection_delay_s:float ->
  unit ->
  t

(** [run_until net t] advances the simulation to virtual time [t]
    ([Engine.run_until] on the net's engine). *)
val run_until : t -> float -> unit

(** [schedule_admin net ~at f] runs [f] at virtual time [at] as an
    ordinary engine event.  Topology changes (failures, repairs, replans)
    enter the timeline through it. *)
val schedule_admin : t -> at:float -> (unit -> unit) -> unit

(** [schedule_at_node net node ~at f] schedules setup-time work that
    starts at [node] (e.g. a TCP flow kickoff at its source host) for
    virtual time [at]; with [at] not in the future, [f] runs
    immediately. *)
val schedule_at_node :
  t -> Topo.Graph.node -> at:float -> (unit -> unit) -> unit

val graph : t -> Topo.Graph.t

(** The engine the network was created on (handlers use it for [now] and
    timer scheduling). *)
val engine : t -> Engine.t

(** The network's metrics registry: [netsim/*] counters (injected,
    delivered, per-reason drops, switch-hops, deflections, reencodes,
    pool-hit/grow/release), the [netsim/queue-peak-bytes] high-watermark
    gauge, and [engine/*] probes (events, pending, heap-peak). *)
val registry : t -> Kar_obs.Registry.t

(** [stats net] snapshots the registry counters into a plain record. *)
val stats : t -> stats

val ttl : t -> int

(** [set_node_handler net node h] routes arriving packets at [node] to
    [h].  Nodes without a handler count arrivals as delivered if the packet
    is addressed to them and as [No_route] drops otherwise. *)
val set_node_handler : t -> Topo.Graph.node -> handler -> unit

(** [send net ~from_node ~port packet] enqueues [packet] on the directed
    channel out of [from_node]'s [port].  If the link is down the packet is
    dropped and counted. *)
val send : t -> from_node:Topo.Graph.node -> port:int -> Packet.t -> unit

(** [inject net ~at packet] delivers [packet] to [at]'s handler immediately
    (in-node injection from a host stack; [in_port = -1]). *)
val inject : t -> at:Topo.Graph.node -> Packet.t -> unit

(** [drop net packet reason] records a loss (exposed for node handlers).
    [?at]/[?in_port] locate the loss for the flight recorder (omitted =
    on-wire / unknown). *)
val drop :
  ?at:Topo.Graph.node -> ?in_port:int -> t -> Packet.t -> drop_reason -> unit

(** [delivered net packet] records a completed delivery (for host
    handlers).  [?in_port] is the arrival port, for the flight recorder. *)
val delivered : ?in_port:int -> t -> Packet.t -> unit

(** [count_deflection net] bumps the deflection counter (used by Karnet). *)
val count_deflection : t -> unit

val count_reencode : t -> unit

(** [count_hop net] bumps the switch-hop counter — one forwarding decision
    taken at a core switch (used by Karnet). *)
val count_hop : t -> unit

(** [link_up net id] is the current liveness of link [id]. *)
val link_up : t -> Topo.Graph.link_id -> bool

(** [fail_link net id] takes the link down immediately, discarding both
    channels' queues and any packet mid-flight on them. *)
val fail_link : t -> Topo.Graph.link_id -> unit

(** [repair_link net id] restores the link. *)
val repair_link : t -> Topo.Graph.link_id -> unit

(** [schedule_failure net id ~at ~duration] arranges a failure window. *)
val schedule_failure : t -> Topo.Graph.link_id -> at:float -> duration:float -> unit

(** [fresh_uid net] allocates a packet uid. *)
val fresh_uid : t -> int

(** {2 Packet buffer pool}

    The network owns a free-list pool of flat packet buffers.  [alloc]
    recycles a released buffer (or grows the pool on first use), stamps a
    fresh uid and the current time, and returns a live packet — the
    steady-state injection path allocates zero minor words once the pool is
    warm.  Packets reach the pool again at every terminal point: {!drop}
    releases internally, handler-less delivery releases after counting, and
    {!Karnet} edge handlers release after the receive callback.  [free] is
    for custom handlers that consume packets themselves; it is a no-op on
    unpooled ({!Packet.make}) handles and on already-released packets, so
    calling it defensively is safe. *)

val alloc :
  t ->
  src:Topo.Graph.node ->
  dst:Topo.Graph.node ->
  size_bytes:int ->
  route_id:Bignum.Z.t ->
  Packet.payload ->
  Packet.t

val free : t -> Packet.t -> unit

(** The network's buffer pool (counter accessors: {!Packet.Pool.hits},
    {!Packet.Pool.grows}, {!Packet.Pool.in_flight},
    {!Packet.Pool.releases}). *)
val pool : t -> Packet.Pool.t

(** Packets currently alive: [Packet.Pool.in_flight (pool net)]. *)
val pool_in_flight : t -> int

(** [live_ports net node] is [node]'s port liveness as its switch sees
    it: [(live_ports net node).(p)] is whether port [p]'s link is up, as of
    the last failure detection.  The array is updated in place; this is
    the [~live] argument of {!Kar.Policy.step}. *)
val live_ports : t -> Topo.Graph.node -> bool array

(** {2 Flight recorder}

    Attaching a {!Trace.Recorder.t} makes the network emit a
    {!Trace.Event.t} per packet lifecycle step (inject, forwarding
    decision, re-encode, deliver, drop) and maintain per-switch
    deflection/drive tallies.  Detached (the default) the data plane does
    no event work at all. *)

val set_recorder : t -> Trace.Recorder.t option -> unit
val recorder : t -> Trace.Recorder.t option

(** [record_event net ~switch ~in_port ~out_port packet action] appends a
    flight-recorder event stamped with the current virtual time and the
    packet's uid and remaining TTL; a no-op with no recorder attached.
    {!Karnet} uses it for forwarding decisions and re-encodes. *)
val record_event :
  t ->
  switch:int ->
  in_port:int ->
  out_port:int ->
  Packet.t ->
  Trace.Event.action ->
  unit

(** [note_deflect net node] / [note_drive net node] bump the per-switch
    observability tallies (called by {!Karnet} while a recorder is
    attached). *)
val note_deflect : t -> Topo.Graph.node -> unit

val note_drive : t -> Topo.Graph.node -> unit

(** Per-switch deflections/drives observed while a recorder was attached. *)
val deflections_at : t -> Topo.Graph.node -> int

val drives_at : t -> Topo.Graph.node -> int

(** [queue_drops_on net link] — tail drops on [link] (either direction),
    maintained unconditionally. *)
val queue_drops_on : t -> Topo.Graph.link_id -> int
