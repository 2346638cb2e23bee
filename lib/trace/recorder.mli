(** Bounded in-memory flight recorder.

    A recorder is an append-only ring buffer of {!Event.t}: when full, the
    oldest events are overwritten (and counted), so a long simulation can
    keep a recorder attached without unbounded memory growth. An optional
    sink sees every event as it is recorded — including ones later
    overwritten — which is how [--trace out.jsonl] streams full traces.

    The recorder also carries the set of protected switch labels (the plan's
    moduli) so emitters can classify driven deflections without depending on
    route-plan types. *)

type t

type sink = Event.t -> unit

(** [create ?capacity ?sink ?protected_switches ()] makes an empty recorder.
    [capacity] is the ring size in events (default 65536, min 1). *)
val create :
  ?capacity:int -> ?sink:sink -> ?protected_switches:int list -> unit -> t

(** [jsonl_sink oc] is a sink writing one {!Event.to_jsonl} line per event. *)
val jsonl_sink : out_channel -> sink

(** [is_protected t label] — is [label] one of the protected switches? *)
val is_protected : t -> int -> bool

val set_protected : t -> int list -> unit

(** [record t ~vtime ~uid ~switch ~in_port ~out_port ~ttl action] appends
    an event, assigning the next sequence number.  Events keep the order
    of the [record] calls, which for the simulator is the order the engine
    ran them in. *)
val record :
  t ->
  vtime:float ->
  uid:int ->
  switch:int ->
  in_port:int ->
  out_port:int ->
  ttl:int ->
  Event.action ->
  unit

(** A no-op: {!record} hands every event to the ring and the sink
    immediately, so nothing is ever pending. *)
val flush : t -> unit

(** Events still in the ring, oldest first. *)
val contents : t -> Event.t list

(** Total events ever recorded (ring + overwritten). *)
val recorded : t -> int

(** Events pushed out of the ring by later ones. *)
val overwritten : t -> int

(** Drop buffered events and reset counters; keeps capacity, sink and
    protected set. *)
val clear : t -> unit
