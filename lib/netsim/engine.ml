type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable stopped : bool;
  mutable done_count : int;
  mutable cancelled_in_heap : int;
  mutable heap_peak : int;
}

and event = {
  time : float;
  seq : int;
  fn : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool;
  owner : t;
}

let create () =
  {
    heap = [||];
    size = 0;
    clock = 0.0;
    next_seq = 0;
    stopped = false;
    done_count = 0;
    cancelled_in_heap = 0;
    heap_peak = 0;
  }

let now e = e.clock

(* Events fire in (time, seq) order: FIFO among equal timestamps. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap e i j =
  let tmp = e.heap.(i) in
  e.heap.(i) <- e.heap.(j);
  e.heap.(j) <- tmp

let sift_down e start =
  let i = ref start and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let first = ref !i in
    if l < e.size && before e.heap.(l) e.heap.(!first) then first := l;
    if r < e.size && before e.heap.(r) e.heap.(!first) then first := r;
    if !first = !i then continue := false
    else begin
      swap e !i !first;
      i := !first
    end
  done

let push e ev =
  if e.size = Array.length e.heap then begin
    let bigger = Array.make (max 64 (2 * e.size)) ev in
    Array.blit e.heap 0 bigger 0 e.size;
    e.heap <- bigger
  end;
  e.heap.(e.size) <- ev;
  let i = ref e.size in
  e.size <- e.size + 1;
  if e.size > e.heap_peak then e.heap_peak <- e.size;
  while !i > 0 && before e.heap.(!i) e.heap.((!i - 1) / 2) do
    swap e ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

let pop e =
  if e.size = 0 then None
  else begin
    let top = e.heap.(0) in
    e.size <- e.size - 1;
    e.heap.(0) <- e.heap.(e.size);
    sift_down e 0;
    top.queued <- false;
    if top.cancelled then e.cancelled_in_heap <- e.cancelled_in_heap - 1;
    Some top
  end

let schedule_at e t f =
  if t < e.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now (%g)" t e.clock);
  let ev =
    { time = t; seq = e.next_seq; fn = f; cancelled = false; queued = true;
      owner = e }
  in
  e.next_seq <- e.next_seq + 1;
  push e ev;
  ev

let schedule_in e dt f =
  if dt < 0.0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule_at e (e.clock +. dt) f

(* Only purge heaps worth the O(n) rebuild; tiny heaps just pop the
   cancellations out. *)
let purge_min_size = 64

(* Compact out every cancelled event and re-establish the heap property
   with a bottom-up Floyd heapify. *)
let purge e =
  let live = ref 0 in
  for i = 0 to e.size - 1 do
    let ev = e.heap.(i) in
    if not ev.cancelled then begin
      e.heap.(!live) <- ev;
      incr live
    end
  done;
  e.size <- !live;
  e.cancelled_in_heap <- 0;
  for i = (e.size / 2) - 1 downto 0 do
    sift_down e i
  done

let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    if ev.queued then begin
      let e = ev.owner in
      e.cancelled_in_heap <- e.cancelled_in_heap + 1;
      (* Long runs accumulate cancelled retransmit timers that bloat the
         heap and slow every sift; drop them all once they outnumber the
         live events. *)
      if e.size >= purge_min_size && e.cancelled_in_heap > e.size / 2 then
        purge e
    end
  end

let step e =
  match pop e with
  | None -> false
  | Some ev ->
    if not ev.cancelled then begin
      e.clock <- ev.time;
      e.done_count <- e.done_count + 1;
      ev.fn ()
    end;
    true

let run e =
  e.stopped <- false;
  while (not e.stopped) && step e do
    ()
  done

let run_until e t =
  e.stopped <- false;
  let continue = ref true in
  while !continue && not e.stopped do
    match e.size with
    | 0 -> continue := false
    | _ ->
      if e.heap.(0).time > t then continue := false
      else ignore (step e)
  done;
  if not e.stopped then e.clock <- max e.clock t

let stop e = e.stopped <- true

let pending e = e.size - e.cancelled_in_heap

let processed e = e.done_count
let heap_peak e = e.heap_peak
