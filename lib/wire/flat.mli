(** Flat binary packet image: the zero-copy in-memory representation the
    simulator's hot path runs on.

    Where {!Wire.Header} is the variable-length codec an ingress edge would
    put on a physical wire, [Flat] is a fixed-capacity mutable image of the
    whole simulated packet — header fields and route ID — backed by a single
    [Bytes.t] so a free-list pool can recycle buffers and the steady-state
    forwarding loop allocates zero minor words per packet.

    Byte layout (all fields little-endian, offsets in bytes):

    {v
     off  width  field
       0      8  uid         unsigned packet id (63-bit OCaml int)
       8      4  src         ingress node
      12      4  dst         egress node
      16      4  size_bytes  simulated payload size
      20      2  hops        switch visits so far
      22      2  reencoded   edge re-encodings so far
      24      1  flags       bit0 = deflected, bit1 = live (pool owns clear)
      25      1  limbs       route-ID limb count, 0..32
      26      1  version     Wire.Header.current_version
      27      1  (reserved)
      28    128  route ID    [limbs] x 31-bit limbs as LE u32 words,
                             little-endian limb order, canonical
                             (top limb nonzero); trailing words undefined
    v}

    32 limbs x 31 bits = 992 bits = {!Wire.Header.max_route_bits}, so any
    route ID the wire codec accepts fits.

    Every accessor is built from single-byte loads/stores ([Bytes.get_int32_le]
    and friends box on 64-bit OCaml); none of them allocates except
    {!route_id}, which materialises a {!Bignum.Z.t} and is for boundaries
    only — the data plane uses {!rem_route_id}. *)

(** Total image size in bytes (156). *)
val size : int

(** Maximum route-ID limb count (32). *)
val max_limbs : int

(** Byte offset of the route-ID limb area, for direct kernel use. *)
val route_pos : int

(** Fresh zeroed image (not live, zero limbs). *)
val create : unit -> Bytes.t

val uid : Bytes.t -> int
val set_uid : Bytes.t -> int -> unit
val src : Bytes.t -> int
val set_src : Bytes.t -> int -> unit
val dst : Bytes.t -> int
val set_dst : Bytes.t -> int -> unit
val size_bytes : Bytes.t -> int
val set_size_bytes : Bytes.t -> int -> unit
val hops : Bytes.t -> int
val set_hops : Bytes.t -> int -> unit
val reencoded : Bytes.t -> int
val set_reencoded : Bytes.t -> int -> unit
val deflected : Bytes.t -> bool
val set_deflected : Bytes.t -> bool -> unit

(** Liveness bit: set by {!stamp}, cleared by the owning pool on release.
    Guards against double-release and use-after-free in tests. *)
val live : Bytes.t -> bool

val set_live : Bytes.t -> bool -> unit
val version : Bytes.t -> int

(** Route-ID limb count currently stored. *)
val limbs : Bytes.t -> int

(** Materialise the route ID (allocates; boundary use only). *)
val route_id : Bytes.t -> Bignum.Z.t

(** Blit a route ID's limbs into the image and store the count.
    @raise Invalid_argument when negative or wider than {!max_limbs}. *)
val set_route_id : Bytes.t -> Bignum.Z.t -> unit

(** [rem_route_id b s] is the forwarding kernel [<R>_s] (paper Eq. 1)
    directly on the limb view — no materialisation, no allocation. *)
val rem_route_id : Bytes.t -> int -> int

(** Full (re-)initialisation: sets every field, clears hops/reencoded/
    deflected, sets live, stamps the current wire version. *)
val stamp :
  Bytes.t ->
  uid:int ->
  src:int ->
  dst:int ->
  size_bytes:int ->
  route_id:Bignum.Z.t ->
  unit
