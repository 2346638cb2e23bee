(* Fixed binary packet image backed by Bytes.  See flat.mli for the byte
   layout.  All accessors are composed from single-byte unsafe loads and
   stores: [Bytes.get_int32_le]/[get_int64_le] box their result on 64-bit
   OCaml, and this module is the representation the steady-state simulation
   loop runs on, so nothing here may allocate. *)

module Z = Bignum.Z
module Nat = Bignum.Nat

let max_limbs = 32 (* 32 * 31 = 992 bits = Header.max_route_bits *)
let uid_off = 0
let src_off = 8
let dst_off = 12
let size_off = 16
let hops_off = 20
let reencoded_off = 22
let flags_off = 24
let limbs_off = 25
let version_off = 26
let route_pos = 28
let size = route_pos + (4 * max_limbs)
let deflected_bit = 0b01
let live_bit = 0b10

let get8 b pos = Char.code (Bytes.unsafe_get b pos)
let set8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let get16 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)

let set16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let get32 b pos =
  get16 b pos lor (get16 b (pos + 2) lsl 16)

let set32 b pos v =
  set16 b pos v;
  set16 b (pos + 2) (v lsr 16)

let create () = Bytes.make size '\000'
let uid b = get32 b uid_off lor (get32 b (uid_off + 4) lsl 32)

let set_uid b v =
  set32 b uid_off v;
  set32 b (uid_off + 4) (v lsr 32)

let src b = get32 b src_off
let set_src b v = set32 b src_off v
let dst b = get32 b dst_off
let set_dst b v = set32 b dst_off v
let size_bytes b = get32 b size_off
let set_size_bytes b v = set32 b size_off v
let hops b = get16 b hops_off
let set_hops b v = set16 b hops_off v
let reencoded b = get16 b reencoded_off
let set_reencoded b v = set16 b reencoded_off v
let deflected b = get8 b flags_off land deflected_bit <> 0

let set_deflected b v =
  let f = get8 b flags_off in
  set8 b flags_off (if v then f lor deflected_bit else f land lnot deflected_bit)

let live b = get8 b flags_off land live_bit <> 0

let set_live b v =
  let f = get8 b flags_off in
  set8 b flags_off (if v then f lor live_bit else f land lnot live_bit)

let version b = get8 b version_off
let limbs b = get8 b limbs_off
let route_id b = Z.of_limbs b ~pos:route_pos ~limbs:(limbs b)

let set_route_id b z =
  if Z.limb_count z > max_limbs then
    invalid_arg "Wire.Flat.set_route_id: route ID exceeds 992 bits";
  set8 b limbs_off (Z.blit_limbs z b ~pos:route_pos)

let rem_route_id b s = Z.rem_int_bytes b ~pos:route_pos ~limbs:(limbs b) s

let stamp b ~uid ~src ~dst ~size_bytes ~route_id =
  set_uid b uid;
  set32 b src_off src;
  set32 b dst_off dst;
  set32 b size_off size_bytes;
  set16 b hops_off 0;
  set16 b reencoded_off 0;
  set8 b flags_off live_bit;
  set8 b version_off Header.current_version;
  set_route_id b route_id
