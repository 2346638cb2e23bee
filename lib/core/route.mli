(** Route-ID construction: turning a path (plus driven-deflection protection
    hops) into the single integer a KAR edge node stamps on packets.

    A {!plan} records everything the controller decided: the residues
    (switch ID, output port), the CRT-encoded route ID and modulus, the core
    path, and the protection hops folded in.  Plans are immutable values;
    stamping a packet is just copying [route_id].  A plan holds no
    per-switch table: a switch's port is [Rns.port route_id s], the
    remainder and nothing else (Eq. 3). *)

module Z = Bignum.Z

type plan = {
  route_id : Z.t;
  modulus : Z.t; (** product of all switch IDs in the plan (Eq. 1) *)
  residues : Rns.residue list; (** in path order, protection hops last *)
  core_path : Topo.Graph.node list; (** primary path, core nodes only *)
  protection : (int * int) list; (** directed hops (switch, next) included *)
  bit_length : int; (** Eq. 9 bound for this plan's modulus *)
}

type error =
  | Rns_error of Rns.error
  | Not_adjacent of int * int (** labels of a non-adjacent consecutive pair *)
  | Not_core of int (** label of a non-core node used as a switch *)
  | Port_not_encodable of int * int
      (** (switch label, port): port index >= switch ID, so the residue
          cannot represent it *)
  | Duplicate_switch of int
      (** a switch can carry only one residue per route ID (the paper's
          intrinsic constraint discussed around Fig. 8) *)
  | Unknown_switch of int (** a label no node of the graph carries *)

val pp_error : Format.formatter -> error -> unit

(** [of_core_path g path ~egress_port] encodes the pure source route: each
    core node forwards toward its successor; the last core node uses
    [egress_port] (its port toward the destination edge).  No protection. *)
val of_core_path :
  Topo.Graph.t -> Topo.Graph.node list -> egress_port:int -> (plan, error) result

(** [of_labels g labels ~egress_label] is {!of_core_path} with nodes given
    by switch ID, the egress port resolved toward the edge node labelled
    [egress_label].  Convenience for scenario code. *)
val of_labels : Topo.Graph.t -> int list -> egress_label:int -> (plan, error) result

(** [protect g plan hops] folds directed protection hops
    [(switch_label, next_label)] into the plan, recomputing the route ID
    with the extra residues (still one CRT; order irrelevant by Eq. 4
    commutativity). *)
val protect : Topo.Graph.t -> plan -> (int * int) list -> (plan, error) result

(** [protect_skipping ?max_bits g plan hops] folds in every hop of [hops]
    that [protect] would accept one at a time, skipping the rest: the
    result equals folding [fun acc hop -> protect g acc [hop]] over [hops]
    and keeping [acc] on [Error], but checks each hop against the running
    modulus product and runs the CRT once.  A hop is also skipped when it
    would take the plan's [bit_length] past [max_bits] (default:
    unbounded).  Returns [plan] itself when no hop is accepted. *)
val protect_skipping :
  ?max_bits:int -> Topo.Graph.t -> plan -> (int * int) list -> plan

(** [protect_exn], [of_labels_exn]: raising variants for scenario code
    where failure is a programming error. *)
val of_labels_exn : Topo.Graph.t -> int list -> egress_label:int -> plan

val protect_exn : Topo.Graph.t -> plan -> (int * int) list -> plan

(** [verify g plan] checks the invariant that every residue in the plan is
    recovered by the modulo operation ([<R>_{s_i} = p_i], Eq. 3); returns
    the list of violations (empty when the encoding is sound). *)
val verify : plan -> (int * int * int) list
