(* Wall-clock measurement for the benchmark: a monotonic nanosecond clock,
   order statistics, and exclusive-time accounting of the layers the
   benchmark calls into.

   A traced episode opens the outermost call (e.g. [Net.run_until]) as the
   root layer and wraps every callback the benchmark owns in
   [enter]/[leave].  Time is always charged to the innermost open layer,
   so the layers' self times are disjoint and sum to the root's wall time;
   the root's own self time is the part no bench-owned callback covers.
   Disabled meters (untraced episodes) never read the clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type t = {
  enabled : bool;
  names : string array;
  self_ns : int array;
  stack : int array;
  mutable depth : int;
  mutable mark : int;
}

(* [create ~enabled names] — layer 0 is the root. *)
let create ~enabled names =
  let n = Array.length names in
  {
    enabled;
    names;
    self_ns = Array.make n 0;
    stack = Array.make 64 0;
    depth = -1;
    mark = 0;
  }

let enter t layer =
  if t.enabled then begin
    let now = now_ns () in
    if t.depth >= 0 then begin
      let cur = t.stack.(t.depth) in
      t.self_ns.(cur) <- t.self_ns.(cur) + (now - t.mark)
    end;
    t.depth <- t.depth + 1;
    t.stack.(t.depth) <- layer;
    t.mark <- now
  end

let leave t =
  if t.enabled then begin
    let now = now_ns () in
    let cur = t.stack.(t.depth) in
    t.self_ns.(cur) <- t.self_ns.(cur) + (now - t.mark);
    t.depth <- t.depth - 1;
    t.mark <- now
  end

let index t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Meter.index: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let self_s t name = float_of_int t.self_ns.(index t name) *. 1e-9

(* The bookkeeping check of a traced episode: every layer closed, no
   negative self time, and the bench-owned parts (every layer but the
   root) within [total_s], the root's wall time read independently. *)
let check t ~total_s =
  if not t.enabled then []
  else begin
    let errs = ref [] in
    if t.depth <> -1 then errs := "meter: layers left open" :: !errs;
    Array.iteri
      (fun i ns ->
        if ns < 0 then
          errs := Printf.sprintf "meter: %s self time negative" t.names.(i) :: !errs)
      t.self_ns;
    let parts = Array.fold_left ( + ) 0 t.self_ns - t.self_ns.(0) in
    if float_of_int parts *. 1e-9 > total_s then
      errs :=
        Printf.sprintf "meter: timed parts %.6f s exceed the traced total %.6f s"
          (float_of_int parts *. 1e-9) total_s
        :: !errs;
    !errs
  end

(* GC counters around a measured call *)
type gc_mark = { minor_words : float; minor_gcs : int; major_gcs : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_delta a =
  let b = gc_mark () in
  {
    minor_words = b.minor_words -. a.minor_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
