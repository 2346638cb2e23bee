(** The plan compiler: lowering an opaque [(plan, policy)] pair into an
    explicit per-switch match-action structure.

    The KAR data plane evaluates [R mod s] on the fly; nothing in the
    running system ever materialises "what would switch [s] do for every
    liveness pattern".  This module does exactly that lowering (in the
    spirit of frenetic's NetKAT compiler): for every core switch, for
    every live-port mask, input port and deflected flag, the compiled
    {!switch_table} names the decision outright — the primary (computed)
    port taken deterministically, the exact candidate set a deflection
    draw ranges over, or a drop.  The data plane becomes an inspectable
    finite structure; the exhaustive verifier ({!Verifier}) walks it as a
    finite-state reachability problem.

    Each cell is a decode of {!Kar.Policy.step}, the same function the
    simulator's switches run: Take is [Forward], Draw is [Deflect] over
    its candidate mask, Stuck is [Drop].  The differential suite in
    test_verify samples the data plane ({!Kar.Policy.step} and
    {!Kar.Policy.draw}) against the compiled cells for every switch of both
    paper topologies and every mask (and over qcheck-random plans).

    A table has [2^degree * (degree + 1) * 2] cells, so {!compile} only
    accepts switches of degree at most {!max_degree}. *)

module Graph = Topo.Graph

(** One compiled match-action entry. *)
type action =
  | Forward of int
      (** deterministic forward out this port (the modulo answer); the
          deflected flag is preserved *)
  | Deflect of int
      (** uniform draw over the ports in this bitmask; the deflected flag
          becomes true.  The verifier treats this as universal choice. *)
  | Drop

(** The complete forwarding behaviour of one switch under one plan: the
    action for every (live-port mask, input port, deflected) triple. *)
type switch_table = {
  node : Graph.node;
  switch_id : int;
  degree : int;
  primary : int;  (** [<R>_s] — may exceed [degree - 1] off the plan *)
  actions : action array;  (** indexed via {!action_of} *)
}

type t = {
  graph : Graph.t;
  plan : Kar.Route.plan;
  policy : Kar.Policy.t;
  tables : switch_table option array;  (** per node; [None] for edges *)
}

(** The largest core-switch degree {!compile} accepts: 12, a table of at
    most 106 496 cells per switch.  The paper topologies (net15, rnp28)
    stay well inside it. *)
val max_degree : int

(** Raised by {!compile} for a core switch (named by its label) whose
    degree exceeds {!max_degree}. *)
exception Degree_too_large of { switch_id : int; degree : int }

(** [compile g ~plan ~policy] lowers the triple into per-switch tables for
    every core switch of [g].
    @raise Degree_too_large before allocating anything when a core switch
    of [g] has more than {!max_degree} ports. *)
val compile : Graph.t -> plan:Kar.Route.plan -> policy:Kar.Policy.t -> t

(** [action_of st ~mask ~in_port ~deflected] looks up the compiled
    decision.  [mask] bit [p] set means port [p]'s link is live;
    [in_port = -1] means local injection.
    @raise Invalid_argument when [mask] or [in_port] is out of range. *)
val action_of : switch_table -> mask:int -> in_port:int -> deflected:bool -> action

(** All-ports-live mask for this switch. *)
val full_mask : switch_table -> int

(** [mask_of_failures g ~node ~failed] is the live-port mask of [node]
    when exactly the links satisfying [failed] are down. *)
val mask_of_failures :
  Graph.t -> node:Graph.node -> failed:(Graph.link_id -> bool) -> int

val table : t -> Graph.node -> switch_table option

(** @raise Invalid_argument on an edge node. *)
val table_exn : t -> Graph.node -> switch_table

(** [is_protected t switch_id] — does the compiled plan carry a residue at
    this switch (so a modulo forward of a deflected packet is a driven
    deflection)? *)
val is_protected : t -> int -> bool

val pp_action : Format.formatter -> action -> unit
