(** A plain-text topology interchange format, so operators can feed their
    own networks to the tools (`bin/kar_route` consumes it).

    Line-oriented; [#] starts a comment.  Two record kinds:

    {v
    # nodes: node <label> core|edge
    node 7  core
    node 1001 edge
    # links: link <labelA>:<portA> <labelB>:<portB> [rate_bps] [delay_s]
    link 7:0 13:2  200e6 2e-3
    link 1001:0 7:1
    v}

    Ports are explicit so the format round-trips exactly (port numbering is
    semantically significant in KAR).  Rates/delays default to the graph
    builder's defaults when omitted. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

(** [to_string g] renders a graph in the format above; parseable by
    {!of_string} into an identical graph (same node indices, labels, kinds,
    ports, rates and delays). *)
val to_string : Graph.t -> string

(** [of_string s] parses a topology.  A core label is a switch ID, the
    modulus of the forwarding remainder, so one outside [1 .. 2^31 - 1] is
    an error on its line. *)
val of_string : string -> (Graph.t, error) result

(** [load path] / [save path g]: file convenience wrappers.
    @raise Sys_error on I/O failure. *)
val load : string -> (Graph.t, error) result

val save : string -> Graph.t -> unit
