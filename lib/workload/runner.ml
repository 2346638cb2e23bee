module Net = Netsim.Net
module Engine = Netsim.Engine
module Nets = Topo.Nets

type data_plane =
  | Kar of Kar.Policy.t
  | Fast_failover

(* What reacts to the failure besides the data plane itself. *)
type reaction =
  | Deflection (* KAR: the data plane is the reaction *)
  | Controller_reroute of float (* notification delay, then re-stamp *)
  | Ingress_failover of float (* 1+1: switch to a disjoint backup plan *)

type timeline_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Nets.failure_case option;
  pre_s : float;
  fail_s : float;
  post_s : float;
  bin_s : float;
  seed : int;
  reaction : reaction;
  detection_delay_s : float;
  tcp : Tcp.Flow.config;
}

let default_timeline =
  {
    policy = Kar Kar.Policy.Not_input_port;
    level = Kar.Controller.Full;
    failure = None;
    pre_s = 3.0;
    fail_s = 3.0;
    post_s = 3.0;
    bin_s = 0.5;
    seed = 42;
    reaction = Deflection;
    detection_delay_s = 0.0;
    tcp = Tcp.Flow.default_config;
  }

type timeline_result = {
  series : float list;
  mean_pre : float;
  mean_onset : float;
  mean_fail : float;
  mean_post : float;
  flow : Tcp.Flow.stats;
  net_deflections : int;
  net_reencodes : int;
  net_drops : int;
}

let scenario_plans sc level =
  ( Kar.Controller.scenario_plan sc level,
    Kar.Controller.scenario_reverse_plan sc level )

(* Builds the net + stack + one flow; returns what the callers sample.
   [plans] lets replication loops encode the (immutable) route plans once
   and share them across reps and worker domains; only the simulator is
   re-seeded per rep. *)
let setup ?plans sc ~policy ~level ~seed ~sampler ?(detection_delay_s = 0.0)
    ?(tcp = Tcp.Flow.default_config) () =
  let engine = Engine.create () in
  let net =
    Net.create ~graph:sc.Nets.graph ~engine ~detection_delay_s ()
  in
  let fwd, rev =
    match plans with Some p -> p | None -> scenario_plans sc level
  in
  (match policy with
   | Kar p -> Netsim.Karnet.install_switches net ~policy:p ~seed
   | Fast_failover -> Baselines.Fast_failover.install net);
  let stack = Tcp.Stack.create ~net () in
  let flow =
    Tcp.Flow.start ~net ~id:1 ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      ~fwd_route:fwd.Kar.Route.route_id ~rev_route:rev.Kar.Route.route_id
      ~config:tcp ~sampler ()
  in
  Tcp.Stack.register stack flow;
  (engine, net, flow)

let timeline sc config =
  let sampler = Tcp.Sampler.create ~bin_s:config.bin_s () in
  let engine, net, flow =
    setup sc ~policy:config.policy ~level:config.level ~seed:config.seed
      ~sampler ~detection_delay_s:config.detection_delay_s ~tcp:config.tcp ()
  in
  let fail_at = config.pre_s in
  let repair_at = config.pre_s +. config.fail_s in
  let t_end = repair_at +. config.post_s in
  (match config.failure with
   | None -> ()
   | Some fc ->
     (match config.reaction with
      | Controller_reroute delay ->
        Baselines.Reroute.arm net ~scenario:sc ~flow ~failure:fc ~at:fail_at
          ~duration:config.fail_s ~notification_delay_s:delay
      | Ingress_failover reaction_s ->
        let plans =
          Kar.Controller.disjoint_plans sc.Nets.graph ~src:sc.Nets.ingress
            ~dst:sc.Nets.egress ~k:2
        in
        Baselines.Edge_failover.arm net ~plans ~flow ~failure:fc ~at:fail_at
          ~duration:config.fail_s ~reaction_s
      | Deflection ->
        Net.schedule_failure net fc.Nets.link ~at:fail_at ~duration:config.fail_s));
  Engine.run_until engine t_end;
  Tcp.Flow.stop flow;
  let stats = Net.stats net in
  let margin = Stdlib.min 0.5 (config.fail_s /. 6.0) in
  {
    series = Tcp.Sampler.series_mbps sampler ~until:t_end;
    mean_pre = Tcp.Sampler.mean_mbps sampler ~from_s:(config.pre_s /. 3.0) ~until:fail_at;
    mean_onset =
      Tcp.Sampler.mean_mbps sampler ~from_s:fail_at
        ~until:(Stdlib.min repair_at (fail_at +. 1.0));
    mean_fail =
      Tcp.Sampler.mean_mbps sampler ~from_s:(fail_at +. margin) ~until:repair_at;
    mean_post =
      Tcp.Sampler.mean_mbps sampler ~from_s:(repair_at +. margin) ~until:t_end;
    flow = Tcp.Flow.stats flow;
    net_deflections = stats.Net.deflections;
    net_reencodes = stats.Net.reencodes;
    net_drops =
      stats.Net.dropped_link_down + stats.Net.dropped_queue_full
      + stats.Net.dropped_no_route + stats.Net.dropped_ttl;
  }

type iperf_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Nets.failure_case option;
  reps : int;
  rep_duration_s : float;
  warmup_s : float;
  seed : int;
  tcp : Tcp.Flow.config;
}

let default_iperf =
  {
    policy = Kar Kar.Policy.Not_input_port;
    level = Kar.Controller.Partial;
    failure = None;
    reps = 10;
    rep_duration_s = 3.0;
    warmup_s = 0.5;
    seed = 42;
    tcp = Tcp.Flow.default_config;
  }

let one_iperf ?plans sc config ~seed =
  let sampler = Tcp.Sampler.create ~bin_s:0.1 () in
  let engine, net, flow =
    setup ?plans sc ~policy:config.policy ~level:config.level ~seed ~sampler
      ~tcp:config.tcp ()
  in
  (match config.failure with
   | None -> ()
   | Some fc -> Net.fail_link net fc.Nets.link);
  Engine.run_until engine config.rep_duration_s;
  Tcp.Flow.stop flow;
  Tcp.Sampler.mean_mbps sampler ~from_s:config.warmup_s ~until:config.rep_duration_s

let rep_seed config i = config.seed + (1000 * i)

(* Reps are independent simulations seeded by rep index, so they run on
   the domain pool; [Pool.map] restores sample order, which keeps the
   summary byte-identical at any [-j]. *)
let iperf_reps sc config =
  if config.reps <= 0 then invalid_arg "Runner.iperf_reps: reps must be positive";
  let plans = scenario_plans sc config.level in
  let seeds = Array.init config.reps (fun i -> rep_seed config i) in
  let samples =
    Util.Pool.run seeds ~f:(fun ~idx:_ seed -> one_iperf ~plans sc config ~seed)
  in
  Util.Stats.summarize (Array.to_list samples)
