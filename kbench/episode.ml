(* One measured repetition of a workload: fresh set-up, one timed call
   into the system, and the checks on what it produced.  Every episode of
   a run uses the same seed, so their virtual outcomes must agree. *)

type t = {
  setup_s : float; (* wall time of the set-up *)
  run_s : float; (* wall time of the measured call *)
  e2e : (string * float) list; (* ops_per_s, work_per_s, ok_ratio *)
  layers : (string * float) list; (* per-layer values of this episode *)
  fingerprint : int list; (* virtual outcome; equal across episodes *)
  attempted : int;
  failed : int;
  errors : string list; (* failed correctness checks *)
  deferred : unit -> string list;
      (* heavier checks, run once on the run's last episode after the
         measurements (and after the heap peak is read) *)
}

(* [expect name cond] — one correctness check *)
let expect errs name cond = if not cond then errs := name :: !errs

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let dropped (s : Netsim.Net.stats) =
  s.Netsim.Net.dropped_link_down + s.Netsim.Net.dropped_queue_full
  + s.Netsim.Net.dropped_no_route + s.Netsim.Net.dropped_ttl

(* The simulator figures both packet workloads report for one
   [Net.run_until] that took [run_s] and the GC work [gc]. *)
let netsim_layers net ~run_s ~(gc : Meter.gc_mark) =
  let module Net = Netsim.Net in
  let s = Net.stats net and engine = Net.engine net in
  let events = Netsim.Engine.processed engine in
  let hops = s.Net.total_switch_hops and injected = s.Net.injected in
  [
    ("netsim.run_s", run_s);
    ("netsim.events", float_of_int events);
    ("netsim.ns_per_event", run_s *. 1e9 /. float_of_int events);
    ("netsim.heap_peak", float_of_int (Netsim.Engine.heap_peak engine));
    ("netsim.hops_per_packet", ratio hops injected);
    ("netsim.ns_per_hop", run_s *. 1e9 /. float_of_int hops);
    ( "netsim.queue_peak_bytes",
      float_of_int (Kar_obs.Registry.read (Net.registry net) "netsim/queue-peak-bytes") );
    ("netsim.pool.grows", float_of_int (Netsim.Packet.Pool.grows (Net.pool net)));
    ("netsim.minor_words_per_packet", gc.Meter.minor_words /. float_of_int injected);
    ("netsim.drops.link_down", float_of_int s.Net.dropped_link_down);
    ("netsim.drops.queue_full", float_of_int s.Net.dropped_queue_full);
    ("netsim.drops.no_route", float_of_int s.Net.dropped_no_route);
    ("netsim.drops.ttl", float_of_int s.Net.dropped_ttl);
    ("karnet.deflections", float_of_int s.Net.deflections);
    ("karnet.deflect_share", ratio s.Net.deflections hops);
    ("karnet.reencodes", float_of_int s.Net.reencodes);
    ("gc.minor_collections", float_of_int gc.Meter.minor_gcs);
    ("gc.major_collections", float_of_int gc.Meter.major_gcs);
  ]
