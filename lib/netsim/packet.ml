module Z = Bignum.Z
module Flat = Wire.Flat

type payload = ..
type payload += Raw

type t = {
  buf : Bytes.t;
  pooled : bool;
  mutable payload : payload;
  mutable born : float;
}

let bytes p = p.buf
let uid p = Flat.uid p.buf
let src p = Flat.src p.buf
let dst p = Flat.dst p.buf
let size_bytes p = Flat.size_bytes p.buf
let route_id p = Flat.route_id p.buf
let set_route_id p z = Flat.set_route_id p.buf z
let deflected p = Flat.deflected p.buf
let set_deflected p v = Flat.set_deflected p.buf v
let hops p = Flat.hops p.buf
let set_hops p v = Flat.set_hops p.buf v
let reencoded p = Flat.reencoded p.buf
let set_reencoded p v = Flat.set_reencoded p.buf v
let payload p = p.payload
let set_payload p v = p.payload <- v
let born p = p.born
let live p = Flat.live p.buf

(* [born] is the only field outside the byte image: cbr latency stats need
   the exact float, and round-tripping it through bits would box on every
   read ([Int64.bits_of_float] allocates).  Storing an already-boxed float
   into the mutable mixed-record field allocates nothing, so the hot path
   keeps its zero-minor-words property as long as callers pass a float they
   already hold (Engine.now reads the clock's box straight through). *)
let stamp p ~uid ~src ~dst ~size_bytes ~route_id ~born payload =
  Flat.stamp p.buf ~uid ~src ~dst ~size_bytes ~route_id;
  p.born <- born;
  p.payload <- payload

let make ~uid ~src ~dst ~size_bytes ~route_id ~born payload =
  let p = { buf = Flat.create (); pooled = false; payload; born } in
  stamp p ~uid ~src ~dst ~size_bytes ~route_id ~born payload;
  p

module Pool = struct
  module Registry = Kar_obs.Registry

  type packet = t

  (* Counters live in a metrics registry ([netsim/pool-*]); a private
     registry is created for standalone pools.  [Registry.incr] is one
     int-array poke, so acquire/release stay at zero minor words. *)
  type t = {
    mutable free : packet array;
    mutable free_top : int; (* free.(0 .. free_top-1) are available *)
    hit_c : Registry.counter;
    grow_c : Registry.counter;
    release_c : Registry.counter;
  }

  let create ?registry () =
    let r = match registry with Some r -> r | None -> Registry.create () in
    (* explicit registration order: it is the snapshot column order *)
    let hit_c = Registry.counter r "netsim/pool-hit" in
    let grow_c = Registry.counter r "netsim/pool-grow" in
    let release_c = Registry.counter r "netsim/pool-release" in
    { free = [||]; free_top = 0; hit_c; grow_c; release_c }

  let acquire (pool : t) =
    if pool.free_top > 0 then begin
      pool.free_top <- pool.free_top - 1;
      Registry.incr pool.hit_c;
      let p = Array.unsafe_get pool.free pool.free_top in
      Flat.set_live p.buf true;
      p
    end
    else begin
      Registry.incr pool.grow_c;
      let p = { buf = Flat.create (); pooled = true; payload = Raw; born = 0.0 } in
      Flat.set_live p.buf true;
      p
    end

  let release (pool : t) p =
    if p.pooled && Flat.live p.buf then begin
      Flat.set_live p.buf false;
      p.payload <- Raw;
      Registry.incr pool.release_c;
      let cap = Array.length pool.free in
      if pool.free_top >= cap then begin
        let grown = Array.make (Stdlib.max 8 (2 * cap)) p in
        Array.blit pool.free 0 grown 0 cap;
        pool.free <- grown
      end;
      Array.unsafe_set pool.free pool.free_top p;
      pool.free_top <- pool.free_top + 1
    end

  let hits pool = Registry.value pool.hit_c
  let grows pool = Registry.value pool.grow_c
  let releases pool = Registry.value pool.release_c
  let in_flight pool = grows pool - pool.free_top
end

let pp ppf p =
  Format.fprintf ppf "pkt#%d %d->%d %dB R=%a hops=%d%s" (uid p) (src p) (dst p)
    (size_bytes p) Z.pp (route_id p) (hops p)
    (if deflected p then " deflected" else "")
