(* The plan compiler and the exhaustive k-failure resilience verifier.

   The compiler is pinned to the data plane by a differential suite: for
   every core switch of both evaluation topologies and every (live-port
   mask, input port, deflected) triple — and over qcheck-random plans —
   the compiled action must agree with the sampled data plane
   (Kar.Policy.step, then Kar.Policy.draw on a deflection).  The verifier's verdicts are pinned to the simulator: k=1
   verdicts are checked against the empirical invariants sweep
   (directionally: adversarial Guaranteed implies empirical delivery;
   adversarial no-delivery implies empirical zero delivery), and refuted
   verdicts replay through Netsim.Engine to reproduce the predicted
   violation.  The golden fixture pins the whole net15 k<=2 verdict table
   byte-for-byte at any -j. *)

module Graph = Topo.Graph
module Nets = Topo.Nets
module Compiler = Kar_verify.Compiler
module Verifier = Kar_verify.Verifier
module Counterexample = Kar_verify.Counterexample
module Verify = Experiments.Verify

let nip = Kar.Policy.Not_input_port

(* --- differential: compiled table vs the sampled data plane --- *)

let live_of g v ~mask =
  Array.init (Graph.degree g v) (fun p -> mask land (1 lsl p) <> 0)

(* One compiled cell vs the data plane as Karnet runs it: [Policy.step],
   then [Policy.draw] on a Draw.  Deterministic actions are checked with a
   single step; deflection candidate sets are checked by membership over 32
   seeded draws plus the structural facts every candidate must satisfy (in
   range, live link). *)
let check_cell ~what st ~policy ~live ~mask ~in_port ~deflected =
  let c =
    Kar.Policy.step policy ~computed:st.Compiler.primary ~in_port ~deflected
      ~live
  in
  let sample rng =
    if c >= 0 then c
    else if c = Kar.Policy.stuck then -1
    else Kar.Policy.draw ~live ~exclude:(Kar.Policy.excluded c) rng
  in
  match Compiler.action_of st ~mask ~in_port ~deflected with
  | Compiler.Forward p ->
    Alcotest.(check int)
      (what ^ ": forward port agrees")
      p (sample (Util.Prng.of_int 7));
    Alcotest.(check bool)
      (what ^ ": forward keeps deflected flag")
      false
      (Kar.Policy.deflects policy c)
  | Compiler.Drop ->
    Alcotest.(check int) (what ^ ": drop agrees") (-1) (sample (Util.Prng.of_int 7))
  | Compiler.Deflect m ->
    Alcotest.(check bool) (what ^ ": candidate set non-empty") true (m <> 0);
    for p = 0 to st.Compiler.degree - 1 do
      if m land (1 lsl p) <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: candidate %d is live" what p)
          true
          (mask land (1 lsl p) <> 0)
    done;
    for seed = 0 to 31 do
      let p = sample (Util.Prng.of_int seed) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: draw %d lands in candidate set" what p)
        true
        (p >= 0 && m land (1 lsl p) <> 0)
    done;
    Alcotest.(check bool)
      (what ^ ": draw sets deflected")
      true
      (Kar.Policy.deflects policy c)

let exhaustive_differential (sc : Nets.scenario) ~name () =
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  List.iter
    (fun policy ->
      let t = Compiler.compile g ~plan ~policy in
      List.iter
        (fun v ->
          let st = Compiler.table_exn t v in
          for mask = 0 to Compiler.full_mask st do
            let live = live_of g v ~mask in
            for in_port = -1 to st.Compiler.degree - 1 do
              List.iter
                (fun deflected ->
                  let what =
                    Printf.sprintf "%s %s sw%d mask=%d in=%d defl=%b" name
                      (Kar.Policy.to_string policy)
                      st.Compiler.switch_id mask in_port deflected
                  in
                  check_cell ~what st ~policy ~live ~mask ~in_port ~deflected)
                [ false; true ]
            done
          done)
        (Graph.core_nodes g))
    Kar.Policy.all

(* qcheck: random plans (any pair, any protection level, any policy) x
   random cells still agree with the sampled data plane. *)
let random_plan_differential =
  QCheck.Test.make ~count:150 ~name:"random plan x mask x cell agrees with step"
    QCheck.(quad small_nat small_nat small_nat (int_bound 1000))
    (fun (pair_ix, level_ix, policy_ix, cell_seed) ->
      let g = Nets.net15.Nets.graph in
      let edges = Array.of_list (Graph.edge_nodes g) in
      let n = Array.length edges in
      let src = edges.(pair_ix mod n) in
      let dst = edges.((pair_ix / n) mod n) in
      QCheck.assume (src <> dst);
      let level =
        List.nth Kar.Controller.all_levels
          (level_ix mod List.length Kar.Controller.all_levels)
      in
      let policy =
        List.nth Kar.Policy.all (policy_ix mod List.length Kar.Policy.all)
      in
      let plan = Kar.Controller.protected_route g ~src ~dst ~level in
      let t = Compiler.compile g ~plan ~policy in
      let cores = Array.of_list (Graph.core_nodes g) in
      let rng = Util.Prng.of_int cell_seed in
      let v = cores.(Util.Prng.int rng (Array.length cores)) in
      let st = Compiler.table_exn t v in
      let mask = Util.Prng.int rng (Compiler.full_mask st + 1) in
      let in_port = Util.Prng.int rng (st.Compiler.degree + 1) - 1 in
      let deflected = Util.Prng.int rng 2 = 1 in
      let live = live_of g v ~mask in
      check_cell ~what:"random" st ~policy ~live ~mask ~in_port ~deflected;
      true)

(* --- empirical replay harness (mirrors Invariants.run_case) --- *)

let empirical g ~plan ~policy ~src ~dst ~failed ~packets ~seed =
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let protected_switches =
    List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues
  in
  let recorder = Trace.Recorder.create ~protected_switches () in
  Netsim.Net.set_recorder net (Some recorder);
  Netsim.Karnet.install_switches net ~policy ~seed;
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun (p : Netsim.Packet.t) ->
          Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  List.iter (fun l -> Netsim.Net.fail_link net l) failed;
  for i = 0 to packets - 1 do
    ignore
      (Netsim.Engine.schedule_at engine
         (float_of_int i *. 1e-3)
         (fun () ->
           let packet =
             Netsim.Packet.make
               ~uid:(Netsim.Net.fresh_uid net)
               ~src ~dst ~size_bytes:512 ~route_id:plan.Kar.Route.route_id
               ~born:(Netsim.Engine.now engine) Netsim.Packet.Raw
           in
           Netsim.Net.inject net ~at:src packet))
  done;
  Netsim.Engine.run engine;
  ((Netsim.Net.stats net).Netsim.Net.delivered, Trace.Recorder.contents recorder)

(* --- k=1 agreement with the empirical invariants sweep ---

   Adversarial verdicts are directional w.r.t. randomized simulation:
   Guaranteed means every resolution of the deflection draws delivers, so
   the simulator must deliver everything cleanly; no-delivery (Loop or
   Blackhole) means no resolution delivers, so the simulator must deliver
   nothing.  Policy_dependent constrains neither direction (the verifier's
   adversary can force failing draw sequences that have probability ~0 in
   the seeded simulation). *)

let test_k1_agreement () =
  let cases = Experiments.Invariants.run () in
  let scenarios = [ ("net15", Nets.net15); ("rnp28", Nets.rnp28) ] in
  let instances = Hashtbl.create 8 in
  let instance_of topology policy =
    match Hashtbl.find_opt instances (topology, policy) with
    | Some i -> i
    | None ->
      let sc = List.assoc topology scenarios in
      let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
      let i =
        Verifier.prepare sc.Nets.graph ~plan ~policy ~src:sc.Nets.ingress
          ~dst:sc.Nets.egress ()
      in
      Hashtbl.add instances (topology, policy) i;
      i
  in
  let checked = ref 0 in
  List.iter
    (fun (c : Experiments.Invariants.case) ->
      if
        c.Experiments.Invariants.level = Kar.Controller.Full
        && (c.Experiments.Invariants.policy = Kar.Policy.Any_valid_port
           || c.Experiments.Invariants.policy = nip)
      then begin
        let sc = List.assoc c.Experiments.Invariants.topology scenarios in
        let g = sc.Nets.graph in
        let link =
          match
            String.split_on_char '-' c.Experiments.Invariants.failure
          with
          | [ a; b ] ->
            let label s = int_of_string (String.sub s 2 (String.length s - 2)) in
            Graph.link_between_labels g (label a) (label b)
          | _ -> Alcotest.failf "unparsable failure %s" c.Experiments.Invariants.failure
        in
        let inst =
          instance_of c.Experiments.Invariants.topology
            c.Experiments.Invariants.policy
        in
        let cls, outcome = Verifier.verify inst ~failed:[ link ] in
        incr checked;
        if cls = Verifier.Guaranteed then begin
          Alcotest.(check int)
            (Printf.sprintf "%s %s %s: Guaranteed => all delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure
               (Kar.Policy.to_string c.Experiments.Invariants.policy))
            c.Experiments.Invariants.packets
            c.Experiments.Invariants.delivered;
          Alcotest.(check int) "Guaranteed => no violations" 0
            (List.length c.Experiments.Invariants.violations)
        end;
        if not outcome.Verifier.can_deliver then
          Alcotest.(check int)
            (Printf.sprintf "%s %s: no-delivery verdict => nothing delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure)
            0 c.Experiments.Invariants.delivered
      end)
    cases;
  (* both topologies, every core link, two policies *)
  Alcotest.(check bool) "agreement covered the sweep" true (!checked >= 120)

(* --- full-protection single-failure claim, decided ---

   The paper's Fig. 5/7 claim at k=1, in adversarial form: under full
   protection every single core-link failure leaves delivery at least
   possible (no Loop/Blackhole/Disconnected verdicts at k=1) for every
   edge pair of both topologies. *)

let test_k1_no_refutation_of_possibility () =
  List.iter
    (fun r ->
      List.iter
        (fun (p : Verify.pair_report) ->
          let row = p.Verify.per_k.(0) in
          let count cls =
            let rec index i = function
              | [] -> assert false
              | c :: rest -> if c = cls then i else index (i + 1) rest
            in
            row.(index 0 Verifier.all_classifications)
          in
          List.iter
            (fun cls ->
              Alcotest.(check int)
                (Printf.sprintf "%s %d->%d k=1 %s" r.Verify.topology
                   p.Verify.src p.Verify.dst
                   (Verifier.classification_to_string cls))
                0 (count cls))
            [ Verifier.Loop; Verifier.Blackhole; Verifier.Disconnected ];
          Alcotest.(check bool)
            (Printf.sprintf "%s %d->%d k=1 angelic" r.Verify.topology
               p.Verify.src p.Verify.dst)
            true
            (p.Verify.ang_k >= 1))
        r.Verify.pairs)
    (Verify.run ())

(* --- counterexample replay ---

   Every counterexample the net15 k<=2 sweep emits must machine-check
   (delivery refuted on a structurally clean trace), and the no-delivery
   classes (Loop/Blackhole) must reproduce empirically: simulating the
   same plan under the same failure set delivers nothing and the live
   trace itself fails the delivery invariant. *)

let test_counterexamples_machine_check () =
  let r = Verify.run_topology ~name:"net15" Nets.net15 ~max_k:2 ~policy:nip () in
  Alcotest.(check bool) "at least one counterexample" true
    (r.Verify.counterexamples <> []);
  List.iter
    (fun (cx : Verify.counterexample) ->
      let what = Verifier.classification_to_string cx.Verify.cx_class in
      Alcotest.(check bool)
        (what ^ ": delivery refuted")
        true
        (Counterexample.refutes cx.Verify.cx_violations);
      Alcotest.(check bool)
        (what ^ ": trace structurally clean")
        true
        (Counterexample.well_formed cx.Verify.cx_violations);
      (* the trace round-trips through the on-disk JSONL format *)
      List.iter
        (fun e ->
          match Trace.Event.of_jsonl (Trace.Event.to_jsonl e) with
          | Ok e' ->
            Alcotest.(check bool) (what ^ ": jsonl roundtrip") true (e = e')
          | Error m -> Alcotest.failf "%s: jsonl parse failed: %s" what m)
        cx.Verify.cx_events;
      (* and through the compact binary format, losslessly and in order *)
      (match
         Trace.Binary.decode_string
           (Trace.Binary.encode_events cx.Verify.cx_events)
       with
       | Ok events ->
         Alcotest.(check bool)
           (what ^ ": binary roundtrip")
           true
           (events = cx.Verify.cx_events)
       | Error m -> Alcotest.failf "%s: binary decode failed: %s" what m))
    r.Verify.counterexamples

let test_no_delivery_verdicts_replay_empirically () =
  let g = Nets.net15.Nets.graph in
  let links = Verify.core_links g in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src <> dst then Some (src, dst) else None)
          (Graph.edge_nodes g))
      (Graph.edge_nodes g)
  in
  let replayed = ref 0 in
  List.iter
    (fun (src, dst) ->
      let plan =
        Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
      in
      let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
      List.iter
        (fun failed ->
          let _, outcome = Verifier.verify inst ~failed in
          if not outcome.Verifier.can_deliver then begin
            incr replayed;
            let delivered, events =
              empirical g ~plan ~policy:nip ~src ~dst ~failed ~packets:4
                ~seed:11
            in
            let what =
              Printf.sprintf "%d->%d failed=%s" (Graph.label g src)
                (Graph.label g dst)
                (String.concat ","
                   (List.map string_of_int (failed :> int list)))
            in
            Alcotest.(check int)
              (what ^ ": engine delivers nothing")
              0 delivered;
            let violations =
              Trace.Invariant.check ~expect_delivery:true ~drained:true events
            in
            Alcotest.(check bool)
              (what ^ ": live trace fails the delivery invariant")
              true
              (List.exists
                 (fun (v : Trace.Invariant.violation) ->
                   v.Trace.Invariant.invariant = "delivery")
                 violations)
          end)
        (Verify.failure_sets links ~k:2))
    pairs;
  (* the sweep currently refutes delivery for at least one k=2 set *)
  Alcotest.(check bool) "replayed at least one no-delivery verdict" true
    (!replayed >= 1)

(* --- golden fixture --- *)

let fixture_path = "fixtures/verify_net15_k2.jsonl"

let lines_at_jobs jobs =
  Util.Pool.set_jobs jobs;
  let out = Verify.fixture_lines () in
  Util.Pool.set_jobs (Util.Pool.default_jobs ());
  out

let test_fixture_jobs_invariant () =
  let at1 = lines_at_jobs 1 and at8 = lines_at_jobs 8 in
  Alcotest.(check (list string)) "fixture byte-identical at -j 1 and -j 8"
    at1 at8

let test_fixture_matches_disk () =
  let ic = open_in fixture_path in
  let n = in_channel_length ic in
  let disk = really_input_string ic n in
  close_in ic;
  let fresh = String.concat "\n" (Verify.fixture_lines ()) ^ "\n" in
  Alcotest.(check string) "verify_net15_k2.jsonl is current" disk fresh

(* --- compiled-table structure --- *)

let test_compiler_structure () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let t = Compiler.compile g ~plan ~policy:nip in
  List.iter
    (fun v ->
      let st = Compiler.table_exn t v in
      Alcotest.(check int) "switch_id is the label" (Graph.label g v)
        st.Compiler.switch_id;
      Alcotest.(check int) "primary is the modulo answer"
        (Rns.port plan.Kar.Route.route_id st.Compiler.switch_id)
        st.Compiler.primary;
      (* all-ports-live, fresh packet: a protected on-path switch forwards
         out its planned residue port *)
      match
        Compiler.action_of st ~mask:(Compiler.full_mask st) ~in_port:(-1)
          ~deflected:false
      with
      | Compiler.Forward p ->
        Alcotest.(check bool) "forward port within degree" true
          (p >= 0 && p < st.Compiler.degree)
      | Compiler.Deflect _ | Compiler.Drop ->
        (* off-path switches may legitimately deflect or drop a fresh
           packet: their modulo answer is arbitrary *)
        Alcotest.(check bool) "off the plan" true
          (st.Compiler.primary >= st.Compiler.degree
          || st.Compiler.primary < 0
          || not (Compiler.is_protected t st.Compiler.switch_id)))
    (Graph.core_nodes g);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "residue switch %d 'protected'" r.Rns.modulus)
        true
        (Compiler.is_protected t r.Rns.modulus))
    plan.Kar.Route.residues

(* The table has 2^degree masks, so compile refuses a switch wider than
   [max_degree] before allocating anything.  The generated 32-switch
   testbed (a core switch of degree 19) used to take seconds and a
   gigabyte per plan; the 15-switch one (degree 8) stays compilable. *)
let test_compiler_degree_bound () =
  let plan_for g =
    match Graph.edge_nodes g with
    | src :: dst :: _ ->
      Kar.Controller.protected_route g ~src ~dst
        ~level:Kar.Controller.Unprotected
    | _ -> Alcotest.fail "testbed has two hosts"
  in
  let g = Experiments.Service.testbed ~n_core:32 () in
  let plan = plan_for g in
  let t0 = Sys.time () in
  (match Compiler.compile g ~plan ~policy:nip with
   | _ -> Alcotest.fail "gen:32 compiled"
   | exception Compiler.Degree_too_large { switch_id; degree } ->
     Alcotest.(check bool) "over the bound" true (degree > Compiler.max_degree);
     Alcotest.(check int) "degree of the named switch" degree
       (Graph.degree g (Graph.node_of_label g switch_id)));
  (match
     Verifier.prepare g ~plan ~policy:nip ~src:(List.hd (Graph.edge_nodes g))
       ~dst:(List.nth (Graph.edge_nodes g) 1) ()
   with
   | _ -> Alcotest.fail "gen:32 prepared"
   | exception Compiler.Degree_too_large _ -> ());
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "rejected in %.3f s" elapsed)
    true (elapsed < 0.5);
  let g15 = Experiments.Service.testbed ~n_core:15 () in
  ignore (Compiler.compile g15 ~plan:(plan_for g15) ~policy:nip);
  List.iter
    (fun (sc : Nets.scenario) ->
      let g = sc.Nets.graph in
      Alcotest.(check bool) "paper topology within the bound" true
        (List.for_all
           (fun v -> Graph.degree g v <= Compiler.max_degree)
           (Graph.core_nodes g)))
    [ Nets.net15; Nets.rnp28 ]

let () =
  Alcotest.run "verify"
    [
      ( "compiler",
        [
          Alcotest.test_case "structure (net15 full plan)" `Quick
            test_compiler_structure;
          Alcotest.test_case "exhaustive differential net15" `Quick
            (exhaustive_differential Nets.net15 ~name:"net15");
          Alcotest.test_case "exhaustive differential rnp28" `Quick
            (exhaustive_differential Nets.rnp28 ~name:"rnp28");
          QCheck_alcotest.to_alcotest random_plan_differential;
          Alcotest.test_case "degree bound" `Quick test_compiler_degree_bound;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "k=1 agreement with invariants sweep" `Quick
            test_k1_agreement;
          Alcotest.test_case "k=1 keeps delivery possible (both topologies)"
            `Quick test_k1_no_refutation_of_possibility;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "machine-checked (net15 k<=2)" `Quick
            test_counterexamples_machine_check;
          Alcotest.test_case "no-delivery verdicts replay empirically" `Quick
            test_no_delivery_verdicts_replay_empirically;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "byte-identical at -j 1 and -j 8" `Quick
            test_fixture_jobs_invariant;
          Alcotest.test_case "matches the checked-in file" `Quick
            test_fixture_matches_disk;
        ] );
    ]
