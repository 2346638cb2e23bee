(** KAR data-plane forwarding: the step rule and the three deflection
    techniques of section 2.1.

    A KAR core switch is stateless.  {!step} is the one definition of a
    hop: a pure function of the computed port [<R>_s], the input port, the
    liveness of the local ports and the packet's [deflected] flag (the only
    per-packet state, which Hot-Potato needs: "once a packet is deflected,
    it follows a complete random path").  When the answer is a deflection,
    {!draw} samples it.  The simulator's switches, the Monte-Carlo walker,
    the exact Markov analysis and the plan compiler all decode {!step}.
    The computed port is the caller's: {!Rns.port} over a route ID,
    [Wire.Flat.rem_route_id] over a packet image.

    A deflection picks uniformly among {e all live} ports (for NIP, minus
    the input port).  A deflection into an edge node strands the packet
    there; the edge then asks the controller for a fresh route ID, the
    paper's second edge-handling approach, used in all its tests.  The port
    selected by the modulo computation is always honoured wherever it
    points; delivery to the egress host works through it. *)

type t =
  | No_deflection
      (** baseline: drop when the computed port is unusable (the paper's
          "no deflection" curve in Fig. 4) *)
  | Hot_potato
      (** HP: first unusable computed port marks the packet deflected;
          deflected packets random-walk over live ports *)
  | Any_valid_port
      (** AVP: always recompute the modulo; random pick (including the
          input port) only when the computed port is unusable *)
  | Not_input_port
      (** NIP: AVP, additionally never returning the packet through its
          input port (Algorithm 1) *)

val all : t list
val to_string : t -> string
val of_string : string -> t option

(** [step policy ~computed ~in_port ~deflected ~live] is the switch's
    choice for a packet whose modulo answer is [computed], arriving on
    [in_port] ([-1]: local injection), at a switch whose port [p] is usable
    iff [live.(p)].  The choice is an immediate int with three cases:
    - {b Take}: [c >= 0], forward on port [c] (the computed port); the
      deflected flag is kept.
    - {b Draw}: [c < 0] and [c <> stuck], a uniform draw ({!draw}) over the
      live ports other than [excluded c].  For NIP the input port is
      excluded, unless it is the only live port (the dead-end bounce).  The
      candidate set is never empty.
    - {b Stuck}: [c = stuck], drop.

    Allocation-free. *)
val step :
  t -> computed:int -> in_port:int -> deflected:bool -> live:bool array -> int

(** The Stuck choice. *)
val stuck : int

(** [excluded c] is the port a Draw choice [c] leaves out of the draw, or
    [-1] when every live port is a candidate. *)
val excluded : int -> int

(** [deflects policy c] is whether choice [c] sets the packet's deflected
    flag: every Draw does, and so does a Stuck drop under every policy but
    No_deflection.  A Take keeps the flag as it was. *)
val deflects : t -> int -> bool

(** [draw ~live ~exclude rng] samples a Draw: it counts the live ports
    other than [exclude], takes one [Util.Prng.int] of that count and picks
    that candidate in ascending port order.  A single candidate consumes no
    PRNG draw.  Allocation-free.
    @raise Invalid_argument when there is no candidate. *)
val draw : live:bool array -> exclude:int -> Util.Prng.t -> int
