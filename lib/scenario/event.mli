(** Timed topology events — the unit every scenario model compiles down
    to.

    A scenario is an ordered stream of [{at; action; link}] records.  The
    stream is the {e only} interface between generation and consumption:
    the data plane applies it through {!Driver.arm} (admin engine events),
    and the control plane converts it
    with {!to_failures} into the [Kar_service.Server.run ~failures]
    schedule.  Both planes therefore replay the identical stream. *)

module Graph = Topo.Graph

type action = Fail | Repair

type t = { at : float; action : action; link : Graph.link_id }

(** Canonical stream order: time, then repairs before fails at the same
    instant (a link cycling within one instant nets to down), then link
    id. *)
val compare : t -> t -> int

(** Sort into canonical order and drop exact duplicates. *)
val normalize : t list -> t list

val action_to_string : action -> string

(** One-line JSONL rendering with both the link id and its endpoint
    switch labels — the golden-fixture and [--trace] format. *)
val to_jsonl : Graph.t -> t -> string

(** The whole stream as JSONL, one event per line (trailing newline). *)
val to_jsonl_lines : Graph.t -> t list -> string

(** Normalized stream as a control-plane failure schedule — structurally
    the [failures] argument of [Kar_service.Server.run], without this
    library depending on [kar_service]. *)
val to_failures :
  t list -> (float * [ `Fail of Graph.link_id | `Repair of Graph.link_id ]) list

(** [links_down events ~at] — links down just after every event [<= at]
    has applied, ascending.  Pure replay, used by tests and the
    adversarial generator's bookkeeping. *)
val links_down : t list -> at:float -> Graph.link_id list
