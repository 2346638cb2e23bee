(** Shared-risk region generator: the regions that fail together in
    [Kar_scenario]'s regional SRLG outages ([regional:] specs).

    [make g ~regions] splits the node set of [g] into [regions] connected,
    non-empty regions covering every node, by min-cut-biased multi-source
    BFS growth: seeds are spread by farthest-first traversal, then the
    smallest region repeatedly claims the frontier node with the most
    already-claimed neighbours (fewest new cut edges).  Growth along links
    keeps every region connected by construction.  [cut_ratio] is
    boundary links / total links. *)

type t = {
  n_regions : int;
  region_of : int array;  (** node -> region index in [0 .. n_regions-1] *)
  cut_links : Graph.link_id list;  (** links whose endpoints differ, ascending *)
  cut_ratio : float;  (** boundary links / total links (0.0 when linkless) *)
}

(** [make g ~regions] partitions [g].
    @raise Invalid_argument if [regions < 1], if [regions] exceeds the node
    count, or if [g] is disconnected and cannot yield connected regions. *)
val make : Graph.t -> regions:int -> t

(** [validate p g] re-checks the partition invariants (covering, non-empty,
    connected regions) — exposed for property tests.  Returns an error
    description instead of raising. *)
val validate : t -> Graph.t -> (unit, string) result
