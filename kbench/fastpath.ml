(* fastpath-gen32: bare forwarding on the 32-switch Waxman serving
   testbed: 16 concurrent constant-bit-rate flows between seed-chosen
   edge pairs, Partial-protected plans, 64-byte packets, no failures, no
   recorder.  The engine, channels, computed-port forwarding and packet
   pool do the work; deflection, re-encode, trace and planner code stay
   idle.  The run is cut into rounds, each carrying the next 16 pairs of
   the seed's ranking, so one episode averages over 128 pairs and the
   figures depend less on the few paths one seed happens to draw. *)

module Graph = Topo.Graph
module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet

let flows = 16 (* concurrent *)
let rounds = 8
let rate_pps = 10_000.0 (* per flow *)
let duration_s = 1.6 (* virtual seconds of injection, all rounds *)
let drain_s = 0.05
let size_bytes = 64

let episode ~seed ~traced =
  let m = Meter.create ~enabled:traced [| "netsim.run"; "netsim.inject"; "bench.hooks" |] in
  let l_run = Meter.index m "netsim.run"
  and l_inject = Meter.index m "netsim.inject"
  and l_hooks = Meter.index m "bench.hooks" in
  let t0 = Meter.now_ns () in
  let g = Experiments.Service.testbed () in
  let pairs = Array.sub (Kar_service.Workload.pairs g ~seed) 0 (flows * rounds) in
  let plans =
    Array.map
      (fun (src, dst) ->
        Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Partial)
      pairs
  in
  let engine = Engine.create () in
  let net = Net.create ~graph:g ~engine () in
  Netsim.Karnet.install_switches net ~policy:Kar.Policy.Not_input_port ~seed;
  (* every delivered packet must have taken exactly its plan's core path *)
  let n = Graph.n_nodes g in
  let expect_hops = Array.make (n * n) (-1) in
  Array.iteri
    (fun i (src, dst) ->
      expect_hops.((src * n) + dst) <- List.length plans.(i).Kar.Route.core_path)
    pairs;
  let off_path = ref 0 in
  let receive _net p =
    Meter.enter m l_hooks;
    if Packet.hops p <> expect_hops.((Packet.src p * n) + Packet.dst p) then
      incr off_path;
    Meter.leave m
  in
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun p -> Kar.Controller.reencode cache ~at:v ~dst:(Packet.dst p))
        ~receive ())
    (Graph.edge_nodes g);
  (* one self-scheduling injection chain per flow, staggered in phase
     within its round *)
  let period = 1.0 /. rate_pps and round_s = duration_s /. float_of_int rounds in
  let per_flow = int_of_float (round_s *. rate_pps) in
  Array.iteri
    (fun j (src, dst) ->
      let route_id = plans.(j).Kar.Route.route_id in
      let offset =
        (float_of_int (j / flows) *. round_s)
        +. (float_of_int (j mod flows) *. period /. float_of_int flows)
      in
      let rec emit k () =
        Meter.enter m l_inject;
        let p = Net.alloc net ~src ~dst ~size_bytes ~route_id Packet.Raw in
        Net.inject net ~at:src p;
        Meter.leave m;
        if k + 1 < per_flow then
          ignore
            (Engine.schedule_at engine
               (offset +. (float_of_int (k + 1) *. period))
               (emit (k + 1)))
      in
      ignore (Engine.schedule_at engine offset (emit 0)))
    pairs;
  let setup_s = Meter.since_s t0 in
  let gc0 = Meter.gc_mark () in
  let t1 = Meter.now_ns () in
  Meter.enter m l_run;
  Net.run_until net (duration_s +. drain_s);
  Meter.leave m;
  let run_s = Meter.since_s t1 in
  let gc = Meter.gc_delta gc0 in
  let s = Net.stats net in
  let injected = s.Net.injected and hops = s.Net.total_switch_hops in
  let dropped = Episode.dropped s in
  let events = Engine.processed engine in
  let errs = ref (Meter.check m ~total_s:run_s) in
  let expect = Episode.expect errs in
  expect "fastpath: every packet injected" (injected = flows * rounds * per_flow);
  expect "fastpath: every packet delivered" (s.Net.delivered = injected);
  expect "fastpath: no packet dropped" (dropped = 0);
  expect "fastpath: no deflection" (s.Net.deflections = 0);
  expect "fastpath: no re-encode" (s.Net.reencodes = 0);
  expect "fastpath: hops equal the plan's core path" (!off_path = 0);
  expect "fastpath: pool drained" (Net.pool_in_flight net = 0);
  let per_s x = float_of_int x /. run_s in
  {
    Episode.setup_s;
    run_s;
    e2e =
      [
        ("ops_per_s", per_s injected);
        ("work_per_s", per_s hops);
        ("ok_ratio", Episode.ratio s.Net.delivered injected);
      ];
    layers =
      [
        ("netsim.self_s", Meter.self_s m "netsim.run");
        ("netsim.inject_s", Meter.self_s m "netsim.inject");
        ("bench.hooks_s", Meter.self_s m "bench.hooks");
      ]
      @ Episode.netsim_layers net ~run_s ~gc;
    fingerprint = [ injected; s.Net.delivered; hops; events ];
    attempted = injected;
    failed = dropped;
    errors = !errs;
    deferred = (fun () -> []);
  }
