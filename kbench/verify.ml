(* verify-rnp28: an exhaustive Kar_verify sweep of every failure set of
   at most four of RNP28's core links, for both edge pairs, under NIP
   deflection and full protection.  The forwarding rule is read through
   the compiled tables instead of packets; the planner runs only in the
   set-up.  The sweep uses no randomness: the seed is accepted and
   ignored, and every seed yields the verdict counts below. *)

module Verifier = Kar_verify.Verifier

let max_k = 4


(* Verdicts of the whole sweep, summed over both pairs, in
   Verifier.all_classifications order.  They must never change. *)
let expected_verdicts =
  [ ("guaranteed", 164_824); ("policy-dependent", 36_354); ("loop", 4); ("blackhole", 0);
    ("disconnected", 2_998) ]

(* A private 1-wide pool: the sweep then runs on the calling domain, like
   the calibration kernel (calib.ml) that scales its wall time.  On a
   2-wide pool the sweep's speed also followed the second core's load,
   which the single-threaded kernel does not see, and the kernel's samples
   were disturbed by the worker domain. *)
let pool = lazy (Util.Pool.create ~jobs:1)

let class_index c =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = c then i else go (i + 1) rest
  in
  go 0 Verifier.all_classifications

let n_classes = List.length Verifier.all_classifications

let episode ~seed:_ ~traced:_ =
  let pool = Lazy.force pool in
  let t0 = Meter.now_ns () in
  let sc = Topo.Nets.rnp28 in
  let g = sc.Topo.Nets.graph in
  let pairs = [ (sc.Topo.Nets.ingress, sc.Topo.Nets.egress); (sc.Topo.Nets.egress, sc.Topo.Nets.ingress) ] in
  let t_plan = Meter.now_ns () in
  let plans =
    List.map
      (fun (src, dst) -> Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full)
      pairs
  in
  let plan_s = Meter.since_s t_plan in
  let t_compile = Meter.now_ns () in
  let instances =
    Array.of_list
      (List.map2
         (fun (src, dst) plan ->
           Verifier.prepare g ~plan ~policy:Kar.Policy.Not_input_port ~src ~dst ())
         pairs plans)
  in
  let compile_s = Meter.since_s t_compile in
  let links = Experiments.Verify.core_links g in
  let sets =
    Array.of_list
      (List.concat_map (fun k -> Experiments.Verify.failure_sets links ~k) (List.init max_k succ))
  in
  let n_sets = Array.length sets in
  let units = Array.length instances * n_sets in
  (* contiguous chunks of (pair, set) units, one pool task each *)
  let n_chunks = 64 in
  let setup_s = Meter.since_s t0 in
  let gc0 = Meter.gc_mark () in
  let t1 = Meter.now_ns () in
  let chunks =
    Util.Pool.map pool (Array.init n_chunks Fun.id) ~f:(fun ~idx:_ ci ->
        let counts = Array.make n_classes 0 in
        let states = ref 0 and raised = ref 0 in
        for u = ci * units / n_chunks to ((ci + 1) * units / n_chunks) - 1 do
          match Verifier.verify instances.(u / n_sets) ~failed:sets.(u mod n_sets) with
          | cls, outcome ->
            counts.(class_index cls) <- counts.(class_index cls) + 1;
            states := !states + outcome.Verifier.states
          | exception _ -> incr raised
        done;
        (counts, !states, !raised))
  in
  let run_s = Meter.since_s t1 in
  let gc = Meter.gc_delta gc0 in
  let counts = Array.make n_classes 0 and states = ref 0 and raised = ref 0 in
  Array.iter
    (fun (c, s, r) ->
      Array.iteri (fun i v -> counts.(i) <- counts.(i) + v) c;
      states := !states + s;
      raised := !raised + r)
    chunks;
  let verdicts =
    List.map2
      (fun c n -> (Verifier.classification_to_string c, n))
      Verifier.all_classifications (Array.to_list counts)
  in
  let errs = ref [] in
  let expect = Episode.expect errs in
  expect "verify: no verification raised" (!raised = 0);
  expect "verify: verdicts sum to the sets swept"
    (Array.fold_left ( + ) 0 counts = units);
  expect "verify: verdict counts unchanged" (verdicts = expected_verdicts);
  let guaranteed = counts.(class_index Verifier.Guaranteed)
  and disconnected = counts.(class_index Verifier.Disconnected) in
  let per_s x = float_of_int x /. run_s in
  {
    Episode.setup_s;
    run_s;
    e2e =
      [
        ("ops_per_s", per_s units);
        ("work_per_s", per_s !states);
        ("ok_ratio", Episode.ratio guaranteed (units - disconnected));
      ];
    layers =
      [
        ("verify.plan_s", plan_s);
        ("verify.compile_s", compile_s);
        ("verify.verify_s", run_s);
        ("verify.sets", float_of_int units);
        ("verify.states", float_of_int !states);
        ("verify.ns_per_state", run_s *. 1e9 /. float_of_int !states);
        ("gc.minor_collections", float_of_int gc.Meter.minor_gcs);
        ("gc.major_collections", float_of_int gc.Meter.major_gcs);
      ]
      @ List.map (fun (c, n) -> ("verify.verdict." ^ c, float_of_int n)) verdicts;
    fingerprint = !states :: Array.to_list counts;
    attempted = units;
    failed = !raised;
    errors = !errs;
    deferred = (fun () -> []);
  }
