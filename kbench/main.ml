(* The repository benchmark: runs one named workload in-process for a
   fixed wall-clock budget, checks its outputs, and prints every metric
   with its unit, the last line being one JSON object:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   An untraced run (--trace 0) repeats the workload's episode until the
   budget is spent, timing the calibration kernel (calib.ml) before the
   first episode and after each one.  It reports the two rates and the
   set-up time as medians over the episodes, each scaled to the nominal
   host speed by the calibration samples on either side of its episode,
   and the peak major heap of the process after three episodes.  A traced
   run (--trace 1) alternates untraced and traced episodes, reports the
   per-layer metrics as medians over the traced ones, unscaled, with the
   median calibration time as bench.calib_ms and the ratio of the two
   kinds' median wall times as bench.trace_overhead.  See kbench/README.md
   for the workloads and the meaning of every metric. *)

let workloads =
  [
    ("fastpath-gen32", Fastpath.episode);
    ("churn-rnp28", Churn.episode);
    ("serve-gen32", Serve.episode);
    ("verify-rnp28", Verify.episode);
  ]

(* BENCHMARK.json lists the same names and units *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("work_per_s", "1/s");
    ("ok_ratio", "ratio");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("netsim.run_s", "s");
    ("netsim.self_s", "s");
    ("netsim.inject_s", "s");
    ("netsim.events", "count");
    ("netsim.ns_per_event", "ns");
    ("netsim.heap_peak", "count");
    ("netsim.hops_per_packet", "count");
    ("netsim.ns_per_hop", "ns");
    ("netsim.queue_peak_bytes", "bytes");
    ("netsim.pool.grows", "count");
    ("netsim.minor_words_per_packet", "words");
    ("netsim.drops.link_down", "count");
    ("netsim.drops.queue_full", "count");
    ("netsim.drops.no_route", "count");
    ("netsim.drops.ttl", "count");
    ("karnet.deflections", "count");
    ("karnet.deflect_share", "ratio");
    ("karnet.reencodes", "count");
    ("trace.sink_s", "s");
    ("trace.records", "count");
    ("trace.bytes", "bytes");
    ("scenario.gen_s", "s");
    ("scenario.events", "count");
    ("tcp.segments", "count");
    ("tcp.retransmissions", "count");
    ("tcp.spurious", "count");
    ("tcp.timeouts", "count");
    ("tcp.goodput_mbps", "Mb/s");
    ("service.workload.gen_s", "s");
    ("service.run_s", "s");
    ("service.request_path_s", "s");
    ("service.cache.hit_ratio", "ratio");
    ("service.cache.stale_rate", "ratio");
    ("service.cache.evictions", "count");
    ("service.batcher.batches", "count");
    ("service.batcher.mean_batch", "count");
    ("service.batcher.coalesced", "count");
    ("service.batcher.max_waiting", "count");
    ("service.planned", "count");
    ("service.p50_ms", "ms");
    ("service.p99_ms", "ms");
    ("kar.plan.route_s", "s");
    ("kar.plan.members_s", "s");
    ("kar.plan.tree_hops_s", "s");
    ("kar.plan.protect_s", "s");
    ("kar.plan.protect_calls", "count");
    ("kar.plan.ms_per_plan", "ms");
    ("kar.plan.over_wire_budget", "count");
    ("rns.route_bits_mean", "bits");
    ("rns.route_bits_max", "bits");
    ("verify.plan_s", "s");
    ("verify.compile_s", "s");
    ("verify.verify_s", "s");
    ("verify.sets", "count");
    ("verify.states", "count");
    ("verify.ns_per_state", "ns");
  ]
  @ List.map
      (fun c ->
        ( "verify.verdict." ^ Kar_verify.Verifier.classification_to_string c,
          "count" ))
      Kar_verify.Verifier.all_classifications
  @ [
      ("bench.hooks_s", "s");
      ("bench.calib_ms", "ms");
      ("bench.trace_overhead", "ratio");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
    ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("kbench: " ^ s); exit 2) fmt

(* Episodes until the budget is spent: at least three untraced ones, or
   in a traced run at least two of each kind, alternating so drift in the
   host hits both kinds alike.  Each episode comes with the mean of the
   calibration samples taken just before and just after it.  The heap
   peak is read after the third episode, a fixed amount of work, so it
   does not grow with the number of episodes a fast host fits into the
   budget. *)
let run_episodes episode ~seed ~seconds ~traced =
  let t0 = Meter.now_ns () in
  let heap = ref nan in
  let rec go n before acc =
    if n = 3 then heap := Meter.peak_heap_mb ();
    let enough = if traced then n >= 4 else n >= 3 in
    if enough && Meter.since_s t0 >= seconds then (List.rev acc, !heap)
    else begin
      let tr = traced && n mod 2 = 1 in
      let e = episode ~seed ~traced:tr in
      let after = Calib.sample () in
      go (n + 1) after ((tr, e, 0.5 *. (before +. after)) :: acc)
    end
  in
  go 0 (Calib.sample ()) []

let value name l =
  match List.assoc_opt name l with
  | Some v -> v
  | None -> fail "metric %s missing from an episode" name

let median_of name eps = Meter.median (List.map (fun e -> value name e) eps)

let json_number name v =
  if not (Float.is_finite v) then
    fail "metric %s is not a finite number" name;
  Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall-clock budget (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run (default 0)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let episode =
    match List.assoc_opt !workload workloads with
    | Some e -> e
    | None ->
      fail "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  let traced = !trace = 1 in
  let eps, peak_heap_mb = run_episodes episode ~seed:!seed ~seconds:!seconds ~traced in
  let all = List.map (fun (_, e, _) -> e) eps in
  let last = List.nth all (List.length all - 1) in
  let errors =
    List.concat_map (fun e -> e.Episode.errors) all
    @ (match all with
       | first :: rest
         when List.exists (fun e -> e.Episode.fingerprint <> first.Episode.fingerprint) rest ->
         [ "episodes of one seed disagree on their virtual outcome" ]
       | _ -> [])
    @ last.Episode.deferred ()
  in
  let errors = List.sort_uniq compare errors in
  let untraced = List.filter_map (fun (tr, e, cal) -> if tr then None else Some (e, cal)) eps in
  let traced_eps = List.filter_map (fun (tr, e, _) -> if tr then Some e else None) eps in
  let calib_s = Meter.median (List.map (fun (_, _, cal) -> cal) eps) in
  (* an episode's wall time at the nominal host speed is its wall time
     times nominal_s / cal, so its rates are scaled by cal / nominal_s *)
  let at_nominal = List.map (fun (e, cal) -> (e, cal /. Calib.nominal_s)) untraced in
  let metrics =
    if not traced then
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "setup_s" ->
              Meter.median
                (List.map (fun (_, e, cal) -> e.Episode.setup_s *. Calib.nominal_s /. cal) eps)
            | "peak_heap_mb" -> peak_heap_mb
            | "ops_per_s" | "work_per_s" ->
              Meter.median (List.map (fun (e, k) -> value name e.Episode.e2e *. k) at_nominal)
            | _ -> median_of name (List.map (fun (e, _) -> e.Episode.e2e) untraced)
          in
          (name, v, unit))
        end_to_end
    else begin
      let layers = List.map (fun e -> e.Episode.layers) traced_eps in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then fail "unknown layer metric %s" name)
        (List.hd layers);
      let run_ratio =
        Meter.median (List.map (fun e -> e.Episode.run_s) traced_eps)
        /. Meter.median (List.map (fun (e, _) -> e.Episode.run_s) untraced)
      in
      List.map
        (fun (name, unit) ->
          let v =
            if name = "bench.trace_overhead" then run_ratio
            else if name = "bench.calib_ms" then calib_s *. 1e3
            else if List.mem_assoc name (List.hd layers) then median_of name layers
            else 0.0
          in
          (name, v, unit))
        per_layer
    end
  in
  let attempted = List.fold_left (fun a e -> a + e.Episode.attempted) 0 all
  and failed = List.fold_left (fun a e -> a + e.Episode.failed) 0 all in
  let correct = errors = [] in
  Printf.printf "workload %s, seed %d, %s run, %d episodes (%d traced)\n" !workload !seed
    (if traced then "traced" else "untraced")
    (List.length all) (List.length traced_eps);
  Printf.printf "  calibration kernel: median %.3f ms, nominal %.3f ms\n" (calib_s *. 1e3)
    (Calib.nominal_s *. 1e3);
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %16.6g %s\n" name v unit) metrics;
  Printf.printf "  attempted %d, failed %d\n" attempted failed;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) errors;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit)
          metrics));
  if not correct then exit 1
