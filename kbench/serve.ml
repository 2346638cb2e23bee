(* serve-gen32: the online route-plan server (Kar_service.Server) on the
   32-switch serving testbed under an open-loop Poisson load of 10k
   requests per virtual second.  Pair popularity is Zipf 0.9 over
   seed-ranked pairs, the levels are unprotected, partial and full, and
   the storm link fails at 40% of the horizon and is repaired at 70%.  The
   control plane does all the work; no packet is simulated. *)

module Graph = Topo.Graph
module Server = Kar_service.Server
module Workload = Kar_service.Workload

let requests = 3_000
let rate = 10_000.0

(* A private 1-wide pool: the planner then runs on the calling domain, so
   the serial replay below measures what [Server.run] spends on it.  On a
   wider pool the plans of a batch overlap, and the replay overstated
   the planner's share of the wall time. *)
let pool = lazy (Util.Pool.create ~jobs:1)

(* The planner stages Server.plan_for runs for one key, timed one by one
   on the failure-free graph: path search, protection members, tree hops,
   and the per-hop Route.protect fold.  Replayed outside the server (whose
   planner runs inside the batcher, out of the benchmark's reach), once
   per distinct key of the workload. *)
let replay_planner g keys =
  let route = ref 0 and members = ref 0 and tree = ref 0 and protect = ref 0 in
  let calls = ref 0 and bits = ref [] in
  let lap acc t = let now = Meter.now_ns () in acc := !acc + (now - t); now in
  let t_all = Meter.now_ns () in
  List.iter
    (fun (src, dst, level) ->
      let t = Meter.now_ns () in
      let base =
        Kar.Controller.route ~usable:(fun _ -> true) g ~src ~dst ~protection:[]
      in
      let t = lap route t in
      let plan =
        match level with
        | Kar.Controller.Unprotected -> base
        | Kar.Controller.Partial | Kar.Controller.Full ->
          let path = base.Kar.Route.core_path in
          let ms =
            match level with
            | Kar.Controller.Partial -> Kar.Protection.off_path_members g ~path ~radius:1
            | _ -> Kar.Protection.full_members g ~path
          in
          let t = lap members t in
          (match List.rev path with
           | [] -> base
           | dest_core :: _ ->
             let path_labels = List.map (Graph.label g) path in
             let hops =
               Kar.Protection.tree_hops g ~dest:dest_core ms
               |> List.filter (fun (s, _) -> not (List.mem s path_labels))
             in
             let t = lap tree t in
             let plan =
               List.fold_left
                 (fun acc hop ->
                   incr calls;
                   match Kar.Route.protect g acc [ hop ] with
                   | Ok plan -> plan
                   | Error _ -> acc)
                 base hops
             in
             ignore (lap protect t);
             plan)
      in
      bits := plan.Kar.Route.bit_length :: !bits)
    keys;
  let total_s = Meter.since_s t_all in
  let n = List.length keys in
  let s ns = float_of_int !ns *. 1e-9 in
  [
    ("kar.plan.route_s", s route);
    ("kar.plan.members_s", s members);
    ("kar.plan.tree_hops_s", s tree);
    ("kar.plan.protect_s", s protect);
    ("kar.plan.protect_calls", float_of_int !calls);
    ("kar.plan.ms_per_plan", total_s *. 1e3 /. float_of_int n);
    ( "kar.plan.over_wire_budget",
      float_of_int
        (List.length (List.filter (fun b -> b > Wire.Header.max_route_bits) !bits)) );
    ("rns.route_bits_mean", float_of_int (List.fold_left ( + ) 0 !bits) /. float_of_int n);
    ("rns.route_bits_max", float_of_int (List.fold_left max 0 !bits));
  ]

let distinct_keys reqs =
  let seen = Hashtbl.create 1024 in
  Array.fold_left
    (fun acc (r : Workload.request) ->
      let k = (r.Workload.src, r.Workload.dst, r.Workload.level) in
      if Hashtbl.mem seen k then acc
      else begin
        Hashtbl.add seen k ();
        k :: acc
      end)
    [] reqs
  |> List.rev

let episode ~seed ~traced =
  let pool = Lazy.force pool in
  let t0 = Meter.now_ns () in
  let g = Experiments.Service.testbed () in
  let t_gen = Meter.now_ns () in
  let reqs =
    Workload.generate g
      {
        Workload.default with
        Workload.n = requests;
        rate;
        skew = 0.9;
        levels = [| Kar.Controller.Unprotected; Kar.Controller.Partial; Kar.Controller.Full |];
        seed;
      }
  in
  let gen_s = Meter.since_s t_gen in
  let horizon = float_of_int requests /. rate in
  let link = Experiments.Service.storm_link g in
  let server = Server.create ~pool ~graph:g () in
  let setup_s = Meter.since_s t0 in
  let gc0 = Meter.gc_mark () in
  let t1 = Meter.now_ns () in
  let r =
    Server.run server ~keep_records:true
      ~failures:[ (0.4 *. horizon, `Fail link); (0.7 *. horizon, `Repair link) ]
      reqs
  in
  let run_s = Meter.since_s t1 in
  let gc = Meter.gc_delta gc0 in
  let lat =
    Array.map (fun (x : Server.record) -> x.Server.completion -. x.Server.arrival) r.Server.records
  in
  Array.sort compare lat;
  let errs = ref [] in
  let expect = Episode.expect errs in
  expect "serve: hits + misses + stale = requests"
    (r.Server.cache_hits + r.Server.cache_misses + r.Server.cache_stale = r.Server.requests);
  expect "serve: every request answered" (r.Server.requests = requests && Array.length lat = requests);
  expect "serve: no unroutable request" (r.Server.unroutable = 0);
  expect "serve: no answer before its request" (Array.for_all (fun l -> l >= 0.0) lat);
  let planner =
    if traced then replay_planner g (distinct_keys reqs) else []
  in
  (* The planner's share is an estimate from a separate window of wall
     time, and it is 90% or more of the run: host noise between the run
     and the replay can push the remainder below zero. *)
  let ms_per_plan = try List.assoc "kar.plan.ms_per_plan" planner with Not_found -> 0.0 in
  let request_path_s = run_s -. (float_of_int r.Server.planned *. ms_per_plan *. 1e-3) in
  let per_s x = float_of_int x /. run_s in
  {
    Episode.setup_s;
    run_s;
    e2e =
      [
        ("ops_per_s", per_s r.Server.requests);
        ("work_per_s", per_s r.Server.planned);
        ("ok_ratio", Episode.ratio (r.Server.requests - r.Server.unroutable) r.Server.requests);
      ];
    layers =
      [
        ("service.workload.gen_s", gen_s);
        ("service.run_s", run_s);
        ("service.request_path_s", request_path_s);
        ("service.cache.hit_ratio", r.Server.hit_ratio);
        ("service.cache.stale_rate", r.Server.stale_rate);
        ("service.cache.evictions", float_of_int r.Server.cache_evictions);
        ("service.batcher.batches", float_of_int r.Server.batches);
        ("service.batcher.mean_batch", Episode.ratio r.Server.planned r.Server.batches);
        ("service.batcher.coalesced", float_of_int r.Server.coalesced);
        ("service.batcher.max_waiting", float_of_int r.Server.max_waiting);
        ("service.planned", float_of_int r.Server.planned);
        ("service.p50_ms", Meter.percentile lat 0.50 *. 1e3);
        ("service.p99_ms", Meter.percentile lat 0.99 *. 1e3);
        ("gc.minor_collections", float_of_int gc.Meter.minor_gcs);
        ("gc.major_collections", float_of_int gc.Meter.major_gcs);
      ]
      @ planner;
    fingerprint =
      [ r.Server.cache_hits; r.Server.cache_misses; r.Server.cache_stale; r.Server.planned;
        r.Server.batches ];
    attempted = r.Server.requests;
    failed = r.Server.unroutable;
    errors = !errs;
    deferred = (fun () -> []);
  }
