(* The plan compiler and the exhaustive k-failure resilience verifier.

   The compiler is pinned to the data plane by a differential suite: for
   every core switch of both evaluation topologies and every (live-port
   mask, input port, deflected) triple — and over qcheck-random plans —
   the compiled action must agree with the sampled data plane
   (Kar.Policy.step, then Kar.Policy.draw on a deflection).  The flat
   verifier is pinned to the reference Hashtbl explorer it replaced, verdict
   for verdict and witness for witness, on every edge pair of both
   topologies at k<=2 and on qcheck-random generated instances.  The
   verifier's verdicts are pinned to the simulator: k=1
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

(* --- reference: the Hashtbl explorer ---

   The verifier as it was before the dense state machine: states numbered
   through a Hashtbl, successor lists per state, a reachability fixpoint
   for drops and separate passes for cycles, shortest delivery and the
   longest run.  Kept here as the reference the flat verifier must match
   verdict for verdict and witness for witness. *)

module Reference = struct
  open Verifier

  (* Physical reachability of dst from src in g - F, transiting core switches
     only (an edge node other than the endpoints cannot relay traffic).  The
     yardstick for the ideal-resilience comparison: when this is false no
     routing scheme could deliver, and the failure set is classified
     [Disconnected] rather than held against KAR. *)
  let connected inst ~failed =
    let g = inst.graph in
    let ok v = Graph.is_core g v || v = inst.src || v = inst.dst in
    let seen = Array.make (Graph.n_nodes g) false in
    let q = Queue.create () in
    seen.(inst.src) <- true;
    Queue.push inst.src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      if v = inst.dst then found := true
      else
        List.iter
          (fun (_, (l : Graph.link), far) ->
            if (not failed.(l.Graph.id)) && ok far && not seen.(far) then begin
              seen.(far) <- true;
              Queue.push far q
            end)
          (Graph.ports g v)
    done;
    !found

  (* --- the state graph ---

     A state is (plan index, core node, input port, deflected): exactly what
     the compiled data plane consults.  TTL is deliberately not part of the
     state: a reachable cycle in this finite graph is a run that exhausts any
     TTL, and acyclic runs are bounded by the longest path, which [verify]
     checks against the TTL explicitly. *)

  type target =
    | T_state of int
    | T_deliver
    | T_drop of { at : int; at_in_port : int }

  type exploration = {
    n_states : int;
    succs : (target * step option) list array;
        (* per state, the decision's fan-out; [step] is [None] only for the
           drop-at-this-switch pseudo-transition *)
    init : target;
    init_stranded : int;
        (* edge the packet stranded at straight off injection, or -1 *)
  }

  let explore inst ~failed =
    let g = inst.graph in
    let n_nodes = Graph.n_nodes g in
    let n_plans = Array.length inst.plans in
    let masks =
      Array.init n_nodes (fun v ->
          if Graph.is_core g v then
            Compiler.mask_of_failures g ~node:v ~failed:(fun id -> failed.(id))
          else 0)
    in
    let ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let state_of : (int, int * int * int * bool) Hashtbl.t =
      Hashtbl.create 256
    in
    let n_states = ref 0 in
    let todo = Queue.create () in
    let key ~plan ~node ~in_port ~deflected =
      (((plan * n_nodes) + node) * (n_nodes + 2))
      + (in_port + 1)
      + if deflected then n_plans * n_nodes * (n_nodes + 2) else 0
    in
    let state_id ~plan ~node ~in_port ~deflected =
      let k = key ~plan ~node ~in_port ~deflected in
      match Hashtbl.find_opt ids k with
      | Some id -> id
      | None ->
        let id = !n_states in
        incr n_states;
        Hashtbl.add ids k id;
        Hashtbl.add state_of id (plan, node, in_port, deflected);
        Queue.push id todo;
        id
    in
    (* Landing on node [u] via port [q]: a core switch becomes a state; an
       edge node delivers, re-encodes (continuing out its port 0 under the
       edge's own plan with a cleared deflected flag, exactly like Karnet's
       edge handler), or drops the packet when no re-encode plan exists.
       Returns the target and the label of the stranding edge (or -1). *)
    let rec land_on ~depth ~plan ~node:u ~in_port:q ~deflected =
      if depth > n_nodes then
        invalid_arg "Verifier: edge-to-edge relay chain (unsupported topology)";
      if Graph.is_core g u then
        (T_state (state_id ~plan ~node:u ~in_port:q ~deflected), -1)
      else if u = inst.dst then (T_deliver, -1)
      else
        match inst.plan_of_edge.(u) with
        | -1 -> (T_drop { at = Graph.label g u; at_in_port = q }, -1)
        | plan' ->
          let w, r = Graph.peer g u 0 in
          let t, _ =
            land_on ~depth:(depth + 1) ~plan:plan' ~node:w ~in_port:r
              ~deflected:false
          in
          (t, Graph.label g u)
    in
    let init, init_stranded =
      (* injection: the source edge ships the packet out its port 0 *)
      let w, r = Graph.peer g inst.src 0 in
      land_on ~depth:0 ~plan:0 ~node:w ~in_port:r ~deflected:false
    in
    let succs_tbl : (int, (target * step option) list) Hashtbl.t =
      Hashtbl.create 256
    in
    while not (Queue.is_empty todo) do
      let id = Queue.pop todo in
      let plan, v, in_port, deflected = Hashtbl.find state_of id in
      let st = Compiler.table_exn inst.plans.(plan) v in
      let out ports_mask ~via_computed ~deflected_after =
        let rec go p acc =
          if p >= st.Compiler.degree then List.rev acc
          else if ports_mask land (1 lsl p) = 0 then go (p + 1) acc
          else begin
            let u, q = Graph.peer g v p in
            let t, strand =
              land_on ~depth:0 ~plan ~node:u ~in_port:q
                ~deflected:deflected_after
            in
            let step =
              {
                switch = st.Compiler.switch_id;
                in_port;
                out_port = p;
                via_computed;
                deflected_before = deflected;
                deflected_after;
                stranded = strand;
              }
            in
            go (p + 1) ((t, Some step) :: acc)
          end
        in
        go 0 []
      in
      let successors =
        match Compiler.action_of st ~mask:masks.(v) ~in_port ~deflected with
        | Compiler.Drop ->
          [ (T_drop { at = st.Compiler.switch_id; at_in_port = in_port }, None) ]
        | Compiler.Forward p ->
          out (1 lsl p) ~via_computed:true ~deflected_after:deflected
        | Compiler.Deflect m -> out m ~via_computed:false ~deflected_after:true
      in
      Hashtbl.replace succs_tbl id successors
    done;
    let succs =
      Array.init !n_states (fun id ->
          match Hashtbl.find_opt succs_tbl id with Some l -> l | None -> [])
    in
    { n_states = !n_states; succs; init; init_stranded }

  (* Reachability of a terminal predicate, by fixpoint over the (small)
     state set. *)
  let reaches expl ~terminal =
    let reach = Array.make (max expl.n_states 1) false in
    let direct targets =
      List.exists
        (fun (t, _) ->
          match t with T_state id -> reach.(id) | t -> terminal t)
        targets
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for id = 0 to expl.n_states - 1 do
        if (not reach.(id)) && direct expl.succs.(id) then begin
          reach.(id) <- true;
          changed := true
        end
      done
    done;
    match expl.init with
    | T_state id -> reach.(id)
    | t -> terminal t

  let is_deliver = function T_deliver -> true | _ -> false
  let is_drop = function T_drop _ -> true | _ -> false

  (* Cycle detection over the states reachable from init (every explored
     state is reachable by construction): 3-colour DFS. *)
  let has_cycle expl =
    let color = Array.make (max expl.n_states 1) 0 in
    let cycle = ref false in
    let rec visit id =
      if color.(id) = 1 then cycle := true
      else if color.(id) = 0 then begin
        color.(id) <- 1;
        List.iter
          (fun (t, _) -> match t with T_state s -> visit s | _ -> ())
          expl.succs.(id);
        color.(id) <- 2
      end
    in
    (match expl.init with T_state id -> visit id | _ -> ());
    !cycle

  (* Hop accounting matches Karnet: a switch arrival bumps the hop count and
     the decision only happens when hops <= ttl.  The init state is arrival
     1; each transition is one further arrival.  Delivery from a state at
     BFS depth d therefore needs d <= ttl. *)
  let shortest_deliver expl =
    match expl.init with
    | T_deliver -> Some 0
    | T_drop _ -> None
    | T_state init ->
      let dist = Array.make expl.n_states (-1) in
      dist.(init) <- 1;
      let q = Queue.create () in
      Queue.push init q;
      let best = ref None in
      while !best = None && not (Queue.is_empty q) do
        let id = Queue.pop q in
        if List.exists (fun (t, _) -> is_deliver t) expl.succs.(id) then
          best := Some dist.(id)
        else
          List.iter
            (fun (t, _) ->
              match t with
              | T_state s when dist.(s) < 0 ->
                dist.(s) <- dist.(id) + 1;
                Queue.push s q
              | _ -> ())
            expl.succs.(id)
      done;
      !best

  (* Longest run (in switch arrivals) of the acyclic state graph — only
     meaningful when [has_cycle] is false. *)
  let longest_run expl =
    match expl.init with
    | T_state init ->
      let memo = Array.make expl.n_states (-1) in
      let rec depth id =
        if memo.(id) >= 0 then memo.(id)
        else begin
          let deepest =
            List.fold_left
              (fun acc (t, _) ->
                match t with T_state s -> max acc (depth s) | _ -> acc)
              0 expl.succs.(id)
          in
          memo.(id) <- 1 + deepest;
          memo.(id)
        end
      in
      depth init
    | _ -> 0

  let failed_array g links =
    let failed = Array.make (Graph.n_links g) false in
    List.iter (fun id -> failed.(id) <- true) links;
    failed

  let verify inst ~failed:failed_links =
    let failed = failed_array inst.graph failed_links in
    let expl = explore inst ~failed in
    let cyc = has_cycle expl in
    let min_deliver_hops =
      match shortest_deliver expl with Some d -> d | None -> -1
    in
    (* TTL guards: a delivery deeper than the TTL is unreachable in the real
       data plane, and an acyclic run longer than the TTL still dies of TTL
       exhaustion (counted in the loop class — TTL death is how loops
       manifest in the engine). *)
    let can_deliver = min_deliver_hops >= 0 && min_deliver_hops <= inst.ttl in
    let can_drop = reaches expl ~terminal:is_drop in
    let can_loop = cyc || longest_run expl > inst.ttl in
    let outcome =
      {
        can_deliver;
        can_drop;
        can_loop;
        states = expl.n_states;
        min_deliver_hops;
      }
    in
    let classification =
      if not (connected inst ~failed) then Disconnected
      else if can_deliver && (not can_drop) && not can_loop then Guaranteed
      else if can_deliver then Policy_dependent
      else if can_loop then Loop
      else Blackhole
    in
    (classification, outcome)

  (* --- refutation witnesses ---

     A refutation is one concrete resolution of the deflection choices that
     fails: a finite run into a drop, or a lasso (prefix + cycle) whose
     unrolling dies of TTL.  {!Counterexample} turns either into a
     Trace-format replay. *)

  let steps_of_path path = List.filter_map (fun (_, s) -> s) path

  let refute_drop expl =
    match expl.init with
    | T_drop { at; at_in_port } -> Some (Drops { steps = []; at; at_in_port })
    | T_deliver -> None
    | T_state init ->
      (* BFS with parent pointers to the nearest drop *)
      let parent = Array.make expl.n_states None in
      let seen = Array.make expl.n_states false in
      seen.(init) <- true;
      let q = Queue.create () in
      Queue.push init q;
      let found = ref None in
      while !found = None && not (Queue.is_empty q) do
        let id = Queue.pop q in
        List.iter
          (fun (t, s) ->
            match t with
            | T_drop { at; at_in_port } when !found = None ->
              found := Some (id, s, at, at_in_port)
            | T_state nxt when not seen.(nxt) ->
              seen.(nxt) <- true;
              parent.(nxt) <- Some (id, s);
              Queue.push nxt q
            | _ -> ())
          expl.succs.(id)
      done;
      (match !found with
       | None -> None
       | Some (last, last_step, at, at_in_port) ->
         let rec unwind id acc =
           match parent.(id) with
           | None -> acc
           | Some (prev, s) -> unwind prev ((prev, s) :: acc)
         in
         let path = unwind last [] @ [ (last, last_step) ] in
         Some (Drops { steps = steps_of_path path; at; at_in_port }))

  let refute_loop expl =
    match expl.init with
    | T_state init ->
      (* DFS lasso search; the trail records (from-state, to-state, step)
         per traversed edge *)
      let color = Array.make expl.n_states 0 in
      let result = ref None in
      let rec visit trail id =
        if !result = None then begin
          color.(id) <- 1;
          List.iter
            (fun (t, s) ->
              match t with
              | T_state nxt when !result = None ->
                if color.(nxt) = 1 then begin
                  let trail' = List.rev ((id, nxt, s) :: trail) in
                  let rec split acc = function
                    | [] -> None
                    | ((from, _, _) as tr) :: rest ->
                      if from = nxt then Some (List.rev acc, tr :: rest)
                      else split (tr :: acc) rest
                  in
                  match split [] trail' with
                  | Some (prefix, cycle) ->
                    let steps l =
                      steps_of_path (List.map (fun (f, _, s) -> (f, s)) l)
                    in
                    result :=
                      Some (Loops { prefix = steps prefix; cycle = steps cycle })
                  | None -> ()
                end
                else if color.(nxt) = 0 then visit ((id, nxt, s) :: trail) nxt
              | _ -> ())
            expl.succs.(id);
          if !result = None then color.(id) <- 2
        end
      in
      visit [] init;
      !result
    | _ -> None

  (* [refute inst ~failed] is one concrete failing run under F, or [None]
     when delivery is guaranteed (or immediate).  Prefers the drop witness
     (shorter traces).  Also returns the label of the edge the packet
     stranded at straight off injection (-1 normally) so the emitter can
     reproduce the initial re-encode. *)
  let refute inst ~failed:failed_links =
    let failed = failed_array inst.graph failed_links in
    let expl = explore inst ~failed in
    let r =
      match refute_drop expl with Some r -> Some r | None -> refute_loop expl
    in
    (r, expl.init_stranded)
end

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

(* --- differential: the flat verifier vs the reference explorer --- *)

let answer f =
  match f () with r -> Ok r | exception Invalid_argument m -> Error m

let show_verdict = function
  | Error m -> "Invalid_argument " ^ m
  | Ok (cls, (o : Verifier.outcome)) ->
    Printf.sprintf "%s deliver=%b drop=%b loop=%b states=%d min_deliver=%d"
      (Verifier.classification_to_string cls)
      o.Verifier.can_deliver o.Verifier.can_drop o.Verifier.can_loop
      o.Verifier.states o.Verifier.min_deliver_hops

let failed_name failed = String.concat "," (List.map string_of_int failed)

(* [verify] and [refute] of [inst] under [failed] against the reference. *)
let agrees ~what inst failed =
  let what = Printf.sprintf "%s F={%s}" what (failed_name failed) in
  Alcotest.(check string)
    (what ^ ": verify")
    (show_verdict (answer (fun () -> Reference.verify inst ~failed)))
    (show_verdict (answer (fun () -> Verifier.verify inst ~failed)));
  Alcotest.(check bool)
    (what ^ ": refute")
    true
    (answer (fun () -> Reference.refute inst ~failed)
    = answer (fun () -> Verifier.refute inst ~failed))

let sets_up_to_2 g =
  let links = Verify.core_links g in
  ([] :: Verify.failure_sets links ~k:1) @ Verify.failure_sets links ~k:2

let test_reference_exhaustive (sc : Nets.scenario) ~name () =
  let g = sc.Nets.graph in
  let sets = sets_up_to_2 g in
  List.iter
    (fun (src, dst) ->
      List.iter
        (fun policy ->
          let inst = Verify.instance_for g ~src ~dst ~policy in
          let what =
            Printf.sprintf "%s %d->%d %s" name (Graph.label g src)
              (Graph.label g dst)
              (Kar.Policy.to_string policy)
          in
          List.iter (agrees ~what inst) sets)
        Kar.Policy.all)
    (List.concat_map
       (fun src ->
         List.filter_map
           (fun dst -> if src <> dst then Some (src, dst) else None)
           (Graph.edge_nodes g))
       (Graph.edge_nodes g))

(* A generated core (gnp, waxman or torus; degree at most 11) with hosts on
   two to four distinct core switches. *)
let random_host_graph rng =
  let n = 5 + Util.Prng.int rng 8 and seed = Util.Prng.int rng 10_000 in
  let base =
    match Util.Prng.int rng 3 with
    | 0 -> Topo.Gen.gnp ~n ~p:0.35 ~seed
    | 1 -> Topo.Gen.waxman ~n ~alpha:0.9 ~beta:0.35 ~seed
    | _ -> Topo.Gen.torus ~w:(3 + Util.Prng.int rng 2) ~h:3
  in
  let g = Kar.Ids.assign base Kar.Ids.Primes_ascending in
  let cores = Array.of_list (Graph.core_nodes g) in
  Util.Prng.shuffle rng cores;
  let n_hosts = 2 + Util.Prng.int rng 3 in
  Topo.Gen.with_edge_hosts g (Array.to_list (Array.sub cores 0 n_hosts))

let random_reference_differential =
  QCheck.Test.make ~count:60
    ~name:"flat verifier = reference (gnp/waxman/torus x level x policy x F)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Prng.of_int seed in
      let g, hosts = random_host_graph rng in
      let hosts = Array.of_list hosts in
      let src = hosts.(0) in
      let dst = hosts.(1 + Util.Prng.int rng (Array.length hosts - 1)) in
      let links = Array.of_list (Graph.links g) in
      let sets =
        List.init 6 (fun _ ->
            List.sort_uniq compare
              (List.init (Util.Prng.int rng 4) (fun _ ->
                   (Util.Prng.choice rng links).Graph.id)))
      in
      List.iter
        (fun level ->
          match Kar.Controller.protected_route g ~src ~dst ~level with
          | exception Invalid_argument _ -> ()
          | plan ->
            List.iter
              (fun policy ->
                let inst = Verifier.prepare g ~plan ~policy ~src ~dst () in
                let what =
                  Printf.sprintf "seed %d %s %s" seed
                    (Kar.Controller.level_to_string level)
                    (Kar.Policy.to_string policy)
                in
                List.iter (agrees ~what inst) sets)
              Kar.Policy.all)
        [ Kar.Controller.Full; Kar.Controller.Partial ];
      true)

(* The per-domain scratch is reused across calls: interleaving instances
   of different sizes and failure sets, starting from a fresh domain with
   either instance first, must give every answer the reference gives. *)
let test_scratch_reuse () =
  let instance (sc : Nets.scenario) =
    Verify.instance_for sc.Nets.graph ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      ~policy:nip
  in
  let a = instance Nets.net15 and b = instance Nets.rnp28 in
  let first_sets inst n =
    List.filteri (fun i _ -> i < n) (sets_up_to_2 inst.Verifier.graph)
  in
  let calls =
    List.concat
      (List.map2
         (fun fa fb -> [ (a, fa); (b, fb); (b, List.rev fb); (a, []) ])
         (first_sets a 60) (first_sets b 60))
  in
  let answers verify refute (inst, failed) =
    ( show_verdict (answer (fun () -> verify inst ~failed)),
      answer (fun () -> refute inst ~failed) )
  in
  let check calls =
    let expected = List.map (answers Reference.verify Reference.refute) calls in
    let got =
      Domain.join
        (Domain.spawn (fun () ->
             List.map (answers Verifier.verify Verifier.refute) calls))
    in
    List.iteri
      (fun i ((ev, er), (gv, gr)) ->
        Alcotest.(check string) (Printf.sprintf "call %d: verify" i) ev gv;
        Alcotest.(check bool)
          (Printf.sprintf "call %d: refute" i)
          true (er = gr))
      (List.combine expected got)
  in
  check calls;
  check (List.tl calls)

(* --- the error contract at the verifier boundary --- *)

let raises what msg f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Invalid_argument m -> Alcotest.(check string) what msg m

let test_boundary_errors () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let src = sc.Nets.ingress and dst = sc.Nets.egress in
  let prepare ?ttl ~src ~dst () =
    Verifier.prepare ?ttl g ~plan ~policy:nip ~src ~dst ()
  in
  let core = List.hd (Graph.core_nodes g) in
  raises "core src"
    (Printf.sprintf "Verifier.prepare: src %d is not an edge node" core)
    (fun () -> prepare ~src:core ~dst ());
  raises "core dst"
    (Printf.sprintf "Verifier.prepare: dst %d is not an edge node" core)
    (fun () -> prepare ~src ~dst:core ());
  raises "src out of range"
    (Printf.sprintf "Verifier.prepare: src %d is not an edge node"
       (Graph.n_nodes g))
    (fun () -> prepare ~src:(Graph.n_nodes g) ~dst ());
  raises "src = dst" "Verifier.prepare: src = dst" (fun () ->
      prepare ~src ~dst:src ());
  raises "ttl 0" "Verifier.prepare: ttl 0 < 1" (fun () ->
      prepare ~ttl:0 ~src ~dst ());
  let inst = prepare ~src ~dst () in
  let ok = List.hd (Verify.core_links g) in
  List.iter
    (fun bad ->
      raises "verify: link id"
        (Printf.sprintf "Verifier.verify: link id %d out of range" bad)
        (fun () -> Verifier.verify inst ~failed:[ ok; bad ]);
      raises "refute: link id"
        (Printf.sprintf "Verifier.refute: link id %d out of range" bad)
        (fun () -> Verifier.refute inst ~failed:[ bad ]))
    [ -1; Graph.n_links g ];
  (* a rejected call leaves nothing behind for the next one *)
  agrees ~what:"after a rejected call" inst [ ok ]

(* Two edge nodes wired port 0 to port 0 relay a stranded packet back and
   forth forever.  The landing is precomputed, but the error is raised only
   by the calls whose exploration reaches it, exactly as the reference
   does: with every link up the packet never strands, and with SW7-SW11
   down SW7 deflects into the pair. *)
let test_relay_chain () =
  let b = Graph.Builder.create () in
  let core l = Graph.Builder.add_node b ~kind:Graph.Core l in
  let edge l = Graph.Builder.add_node b ~kind:Graph.Edge l in
  let sw5 = core 5 and sw7 = core 7 and sw11 = core 11 in
  let src = edge 1000 and dst = edge 1001 in
  let e1 = edge 1002 and e2 = edge 1003 in
  ignore (Graph.Builder.add_link_at b (e1, 0) (e2, 0));
  List.iter
    (fun (u, v) -> ignore (Graph.Builder.add_link b u v))
    [ (src, sw5); (sw5, sw7); (sw7, sw11); (sw11, dst); (e1, sw7); (e2, sw7) ];
  let g = Graph.Builder.finish b in
  let plan =
    Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
  in
  let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
  let cut = Graph.link_between_labels g 7 11 in
  (match Verifier.verify inst ~failed:[] with
   | Verifier.Guaranteed, _ -> ()
   | cls, _ ->
     Alcotest.failf "no failure: %s" (Verifier.classification_to_string cls));
  raises "SW7-SW11 down"
    "Verifier: edge-to-edge relay chain (unsupported topology)" (fun () ->
      Verifier.verify inst ~failed:[ cut ]);
  List.iter (agrees ~what:"relay chain" inst) [ []; [ cut ] ]

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
          Alcotest.test_case "= reference, net15 pairs k<=2" `Quick
            (test_reference_exhaustive Nets.net15 ~name:"net15");
          Alcotest.test_case "= reference, rnp28 pairs k<=2" `Quick
            (test_reference_exhaustive Nets.rnp28 ~name:"rnp28");
          QCheck_alcotest.to_alcotest random_reference_differential;
          Alcotest.test_case "scratch reuse across instances" `Quick
            test_scratch_reuse;
          Alcotest.test_case "boundary errors" `Quick test_boundary_errors;
          Alcotest.test_case "relay chain raises where reached" `Quick
            test_relay_chain;
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
