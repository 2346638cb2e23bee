type sink = Event.t -> unit

type t = {
  capacity : int;
  mutable buf : Event.t array; (* [||] until first record, then [capacity] *)
  mutable next : int; (* ring write cursor *)
  mutable recorded : int;
  sink : sink option;
  mutable protected_switches : int list;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ?sink ?(protected_switches = []) () =
  {
    capacity = max 1 capacity;
    buf = [||];
    next = 0;
    recorded = 0;
    sink;
    protected_switches;
  }

let jsonl_sink oc e =
  output_string oc (Event.to_jsonl e);
  output_char oc '\n'

let is_protected t label = List.mem label t.protected_switches
let set_protected t labels = t.protected_switches <- labels

let record t ~vtime ~uid ~switch ~in_port ~out_port ~ttl action =
  let e =
    { Event.seq = t.recorded; vtime; uid; switch; in_port; out_port; ttl; action }
  in
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity e
  else t.buf.(t.next) <- e;
  t.next <- (t.next + 1) mod t.capacity;
  t.recorded <- t.recorded + 1;
  match t.sink with None -> () | Some sink -> sink e

let flush _ = ()

let contents t =
  let live = min t.recorded t.capacity in
  let start = (t.next - live + t.capacity) mod t.capacity in
  List.init live (fun i -> t.buf.((start + i) mod t.capacity))

let recorded t = t.recorded

let overwritten t = max 0 (t.recorded - t.capacity)

let clear t =
  t.next <- 0;
  t.recorded <- 0;
  t.buf <- [||]
