(* All scalars (counters and gauges) live in one registry-owned growable
   [int array]; a handle is the registry plus an index.  Updates read the
   mutable [cells] field and poke one slot — no allocation, and safe
   across growth because the field is re-read on every update.  Histogram
   buckets are one preallocated [int array] per histogram. *)

type t = {
  mutable cells : int array;
  mutable n_cells : int;
  mutable items_rev : (string * metric) list;
  index : (string, metric) Hashtbl.t;
}

and cell = { reg : t; idx : int }
and counter = cell
and gauge = cell

and histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
}

and metric =
  | Counter of counter
  | Gauge of gauge
  | Probe of (unit -> int)
  | Histogram of histogram

let create () =
  { cells = Array.make 16 0; n_cells = 0; items_rev = []; index = Hashtbl.create 32 }

let register t name m =
  if Hashtbl.mem t.index name then
    invalid_arg (Printf.sprintf "Kar_obs.Registry: duplicate metric %S" name);
  Hashtbl.add t.index name m;
  t.items_rev <- (name, m) :: t.items_rev

let alloc_cell t =
  let cap = Array.length t.cells in
  if t.n_cells >= cap then begin
    let grown = Array.make (2 * cap) 0 in
    Array.blit t.cells 0 grown 0 cap;
    t.cells <- grown
  end;
  let idx = t.n_cells in
  t.n_cells <- idx + 1;
  { reg = t; idx }

let counter t name =
  let c = alloc_cell t in
  register t name (Counter c);
  c

let gauge t name =
  let g = alloc_cell t in
  register t name (Gauge g);
  g

let probe t name f = register t name (Probe f)

let[@inline] incr c =
  let cells = c.reg.cells in
  Array.unsafe_set cells c.idx (Array.unsafe_get cells c.idx + 1)

let[@inline] add c n =
  let cells = c.reg.cells in
  Array.unsafe_set cells c.idx (Array.unsafe_get cells c.idx + n)

let[@inline] value c = Array.unsafe_get c.reg.cells c.idx
let[@inline] set g v = Array.unsafe_set g.reg.cells g.idx v

let[@inline] set_max g v =
  let cells = g.reg.cells in
  if v > Array.unsafe_get cells g.idx then Array.unsafe_set cells g.idx v

let gauge_value = value

(* --- histogram bucket geometry ---------------------------------------

   Sub-bucketed base-2 (HdrHistogram-style), [sub_bits] = 3 so every
   octave at or above 2^4 splits into 8 equal sub-buckets:

     bucket 0            : v <= 0
     buckets 1..15       : v = bucket exactly (values below 2^4)
     bucket 16 + 8e + s  : v in [2^(4+e) + s*2^(1+e), .. + 2^(1+e) - 1]

   Relative bucket width above 16 is <= 1/8, so a quantile read off the
   bucket's upper bound is within 12.5% (one bucket width) of the exact
   nearest-rank value.  The top octave is 2^62 (max_int is 2^62 - 1 on
   64-bit), giving 16 + 59*8 = 488 buckets. *)

let sub_bits = 3
let first_octave = sub_bits + 1 (* 4: values below 2^4 are exact *)
let n_buckets = 16 + ((62 - first_octave + 1) * 8)

let[@inline] msb v =
  (* floor(log2 v) for v >= 1, branch-free-ish shift cascade *)
  let e = ref 0 and v = ref v in
  if !v >= 1 lsl 32 then (e := !e + 32; v := !v lsr 32);
  if !v >= 1 lsl 16 then (e := !e + 16; v := !v lsr 16);
  if !v >= 1 lsl 8 then (e := !e + 8; v := !v lsr 8);
  if !v >= 1 lsl 4 then (e := !e + 4; v := !v lsr 4);
  if !v >= 1 lsl 2 then (e := !e + 2; v := !v lsr 2);
  if !v >= 2 then e := !e + 1;
  !e

let[@inline] bucket_of_value v =
  if v <= 0 then 0
  else if v < 16 then v
  else
    let e = msb v in
    16 + ((e - first_octave) * 8) + ((v - (1 lsl e)) lsr (e - sub_bits))

let bucket_bounds b =
  if b < 0 || b >= n_buckets then invalid_arg "Registry.bucket_bounds";
  if b = 0 then (min_int, 0)
  else if b < 16 then (b, b)
  else begin
    let i = b - 16 in
    let e = first_octave + (i / 8) in
    let s = i mod 8 in
    let w = 1 lsl (e - sub_bits) in
    let lo = (1 lsl e) + (s * w) in
    (lo, lo + w - 1)
  end

let histogram t name =
  let h = { buckets = Array.make n_buckets 0; count = 0; sum = 0 } in
  register t name (Histogram h);
  h

let[@inline] observe h v =
  let b = bucket_of_value v in
  let buckets = h.buckets in
  Array.unsafe_set buckets b (Array.unsafe_get buckets b + 1);
  h.count <- h.count + 1;
  h.sum <- h.sum + (if v > 0 then v else 0)

let[@inline] observe_s h seconds = observe h (int_of_float (seconds *. 1e9))
let h_count h = h.count
let h_sum h = h.sum
let h_bucket h b = h.buckets.(b)

let h_quantile h p =
  if h.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.count)) in
    let rank = if rank < 1 then 1 else if rank > h.count then h.count else rank in
    let cum = ref 0 and b = ref 0 and found = ref (-1) in
    while !found < 0 && !b < n_buckets do
      cum := !cum + Array.unsafe_get h.buckets !b;
      if !cum >= rank then found := !b;
      b := !b + 1
    done;
    if !found <= 0 then 0 else snd (bucket_bounds !found)
  end

(* --- enumeration ------------------------------------------------------ *)

let metrics t = List.rev t.items_rev
let find t name = Hashtbl.find_opt t.index name

let read t name =
  match Hashtbl.find_opt t.index name with
  | Some (Counter c) | Some (Gauge c) -> value c
  | Some (Probe f) -> f ()
  | Some (Histogram _) | None -> raise Not_found

(* --- shards and deterministic merge ----------------------------------- *)

let shards t ~n =
  if n < 1 then invalid_arg "Registry.shards: n must be >= 1";
  let make_one () =
    let s = create () in
    List.iter
      (fun (name, m) ->
        match m with
        | Counter _ -> ignore (counter s name)
        | Gauge _ -> ignore (gauge s name)
        | Histogram _ -> ignore (histogram s name)
        | Probe _ -> ())
      (metrics t);
    s
  in
  Array.init n (fun _ -> make_one ())

let merge_into ~into src =
  List.iter
    (fun (name, m) ->
      match m with
      | Probe _ -> ()
      | _ ->
        let dst =
          match Hashtbl.find_opt into.index name with
          | Some d -> d
          | None ->
            invalid_arg
              (Printf.sprintf "Registry.merge_into: %S missing in target" name)
        in
        (match (m, dst) with
         | Counter c, Counter d -> add d (value c)
         | Gauge g, Gauge d -> set_max d (value g)
         | Histogram h, Histogram d ->
           for b = 0 to n_buckets - 1 do
             d.buckets.(b) <- d.buckets.(b) + h.buckets.(b)
           done;
           d.count <- d.count + h.count;
           d.sum <- d.sum + h.sum
         | _ ->
           invalid_arg
             (Printf.sprintf "Registry.merge_into: kind mismatch for %S" name)))
    (metrics src)
