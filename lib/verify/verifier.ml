module Graph = Topo.Graph

type outcome = {
  can_deliver : bool;
  can_drop : bool;
  can_loop : bool;
  states : int;
  min_deliver_hops : int;
}

type classification =
  | Guaranteed
  | Policy_dependent
  | Loop
  | Blackhole
  | Disconnected

let classification_to_string = function
  | Guaranteed -> "guaranteed"
  | Policy_dependent -> "policy-dependent"
  | Loop -> "loop"
  | Blackhole -> "blackhole"
  | Disconnected -> "disconnected"

let all_classifications =
  [ Guaranteed; Policy_dependent; Loop; Blackhole; Disconnected ]

(* --- the state machine ---

   A state is (plan index, core node, input port, deflected): exactly what
   the compiled data plane consults.  TTL is deliberately not part of the
   state: a reachable cycle in this finite graph is a run that exhausts any
   TTL, and acyclic runs are bounded by the longest path, which [verify]
   checks against the TTL explicitly.

   Each (plan, core node) pair is a site.  Site [x] owns the dense keys
   [base.(x) + (in_port + 1) * 2 + deflected], so every base is even and a
   key's low bit is its deflected flag.  Port [p] of site [x] lands at slot
   [first_slot.(x) + p], and the last slot is the injection out of [src]'s
   port 0.  Where a slot lands depends on the instance alone: a core state
   ([code >= 0], its key with the flag cleared; odd when a stranding edge
   re-encoded the packet, which clears the flag, else the hop's own flag is
   kept), a delivery, a drop, or a relay chain that never lands. *)

let deliver = -1 and drop = -2 and bad_relay = -3
let target code ~after = if code land 1 = 1 then code - 1 else code + after

type machine = {
  tables : Compiler.switch_table array;  (** site -> its switch's table *)
  base : int array;  (** site -> its first key *)
  site_of_key : int array;
  first_slot : int array;  (** site -> slot of its port 0 *)
  landing : int array;  (** slot -> code *)
  stranded : int array;  (** slot -> label of the re-encoding edge, or -1 *)
  drop_at : int array;  (** slot -> label of the edge a [drop] lands on *)
  drop_in : int array;  (** slot -> the port it lands through *)
  full : int array;  (** node -> live-port mask with every link up *)
  adj : (Graph.link_id * Graph.node) array array;
      (** node -> its links to a core switch, [src] or [dst], and that node *)
}

type instance = {
  graph : Graph.t;
  src : Graph.node;
  dst : Graph.node;
  policy : Kar.Policy.t;
  ttl : int;
  plans : Compiler.t array;
  plan_of_edge : int array;
  machine : machine;
}

let machine g ~src ~dst ~plans ~plan_of_edge =
  let n_nodes = Graph.n_nodes g in
  let cores = Array.of_list (Graph.core_nodes g) in
  let n_cores = Array.length cores in
  let core_index = Array.make n_nodes (-1) in
  Array.iteri (fun i v -> core_index.(v) <- i) cores;
  let tables =
    Array.init
      (Array.length plans * n_cores)
      (fun x -> Compiler.table_exn plans.(x / n_cores) cores.(x mod n_cores))
  in
  let keys =
    Array.mapi
      (fun x (st : Compiler.switch_table) -> Array.make ((st.degree + 1) * 2) x)
      tables
  in
  let site_of_key = Array.concat (Array.to_list keys) in
  let base = Array.make (Array.length tables) 0 in
  let first_slot = Array.make (Array.length tables) 0 in
  for x = 1 to Array.length tables - 1 do
    base.(x) <- base.(x - 1) + Array.length keys.(x - 1);
    first_slot.(x) <- first_slot.(x - 1) + tables.(x - 1).degree
  done;
  let n_slots = Array.fold_left (fun n st -> n + st.Compiler.degree) 1 tables in
  let landing = Array.make n_slots 0 and stranded = Array.make n_slots (-1) in
  let drop_at = Array.make n_slots (-1) and drop_in = Array.make n_slots (-1) in
  (* Landing on node [u] via port [q]: a core switch is a state; an edge
     node delivers, re-encodes (continuing out its port 0 under the edge's
     own plan with a cleared deflected flag, exactly like Karnet's edge
     handler), or drops the packet when no re-encode plan exists. *)
  let set slot ~plan (u, q) =
    let rec go depth plan u q =
      if depth > n_nodes then landing.(slot) <- bad_relay
      else if Graph.is_core g u then
        landing.(slot) <-
          base.((plan * n_cores) + core_index.(u))
          + ((q + 1) * 2)
          + if depth > 0 then 1 else 0
      else if u = dst then landing.(slot) <- deliver
      else
        match plan_of_edge.(u) with
        | -1 ->
          landing.(slot) <- drop;
          drop_at.(slot) <- Graph.label g u;
          drop_in.(slot) <- q
        | plan' ->
          if depth = 0 then stranded.(slot) <- Graph.label g u;
          let w, r = Graph.peer g u 0 in
          go (depth + 1) plan' w r
    in
    go 0 plan u q
  in
  Array.iteri
    (fun x (st : Compiler.switch_table) ->
      for p = 0 to st.degree - 1 do
        set (first_slot.(x) + p) ~plan:(x / n_cores) (Graph.peer g st.node p)
      done)
    tables;
  set (n_slots - 1) ~plan:0 (Graph.peer g src 0);
  let full v = if Graph.is_core g v then (1 lsl Graph.degree g v) - 1 else 0 in
  (* Physical reachability transits core switches only: an edge node other
     than the endpoints cannot relay traffic. *)
  let relay (_, (l : Graph.link), u) =
    if Graph.is_core g u || u = src || u = dst then Some (l.id, u) else None
  in
  let adj v = Array.of_list (List.filter_map relay (Graph.ports g v)) in
  { tables; base; site_of_key; first_slot; landing; stranded; drop_at;
    drop_in; full = Array.init n_nodes full; adj = Array.init n_nodes adj }

let prepare ?(ttl = 128) g ~plan ~policy ~src ~dst () =
  let edge what v =
    if v < 0 || v >= Graph.n_nodes g || Graph.is_core g v then
      invalid_arg
        (Printf.sprintf "Verifier.prepare: %s %d is not an edge node" what v)
  in
  if ttl < 1 then
    invalid_arg (Printf.sprintf "Verifier.prepare: ttl %d < 1" ttl);
  edge "src" src;
  edge "dst" dst;
  if src = dst then invalid_arg "Verifier.prepare: src = dst";
  let primary = Compiler.compile g ~plan ~policy in
  let compiled = ref [ primary ] in
  let n = ref 1 in
  let plan_of_edge = Array.make (Graph.n_nodes g) (-1) in
  List.iter
    (fun e ->
      if e <> dst then
        (* Mirror Controller.reencode: an unprotected shortest-path plan
           from the stranding edge, computed on the failure-free graph. *)
        match Kar.Controller.route g ~src:e ~dst ~protection:[] with
        | p ->
          compiled := Compiler.compile g ~plan:p ~policy :: !compiled;
          plan_of_edge.(e) <- !n;
          incr n
        | exception Invalid_argument _ -> ())
    (Graph.edge_nodes g);
  let plans = Array.of_list (List.rev !compiled) in
  let machine = machine g ~src ~dst ~plans ~plan_of_edge in
  { graph = g; src; dst; policy; ttl; plans; plan_of_edge; machine }

(* --- per-domain scratch ---

   Arrays indexed by key ([parent] and [via] are a state's discoverer and
   its slot, [cand] the ports the state leaves by and [after] its
   deflected flag after the hop; [run] is 0 before the DFS, -1 on its
   path, else the longest run), by discovery order ([order], the BFS
   queue), by DFS depth ([trail], [trail_slot]), by node ([masks], [seen],
   [queue]) and by link ([dead]), grown on demand.  A key, node or link
   belongs to the current call only when its stamp equals [gen], so
   nothing is cleared between calls, and every domain has its own. *)

type scratch = {
  mutable gen : int;
  mutable stamp : int array;
  mutable order : int array;
  mutable parent : int array;
  mutable via : int array;
  mutable cand : int array;
  mutable after : int array;
  mutable run : int array;
  mutable trail : int array;
  mutable trail_slot : int array;
  mutable masks : int array;
  mutable seen : int array;
  mutable queue : int array;
  mutable dead : int array;
  mutable n : int;  (** states discovered *)
  mutable min_deliver : int;  (** arrivals before the first delivery *)
  mutable dropped : bool;
  mutable drop_from : int;  (** first state with a drop, -1: injection *)
  mutable drop_slot : int;  (** its slot landing on it, -1: its own Drop *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let e = [||] in
      { gen = 0; stamp = e; order = e; parent = e; via = e;
        cand = e; after = e; run = e; trail = e; trail_slot = e; masks = e;
        seen = e; queue = e; dead = e; n = 0; min_deliver = -1;
        dropped = false; drop_from = -1; drop_slot = -1 })

let rec fail_links ~fn g s = function
  | [] -> ()
  | id :: rest ->
    if id < 0 || id >= Graph.n_links g then
      invalid_arg (Printf.sprintf "Verifier.%s: link id %d out of range" fn id);
    let l = Graph.link g id in
    s.dead.(id) <- s.gen;
    s.masks.(l.ep0.node) <- s.masks.(l.ep0.node) land lnot (1 lsl l.ep0.port);
    s.masks.(l.ep1.node) <- s.masks.(l.ep1.node) land lnot (1 lsl l.ep1.port);
    fail_links ~fn g s rest

(* The scratch for one call on [inst]: grown to its sizes, with a fresh
   generation, the failed links stamped and the live masks set. *)
let scratch ~fn inst failed =
  let s = Domain.DLS.get scratch_key in
  let keys = Array.length inst.machine.site_of_key in
  if Array.length s.stamp < keys then begin
    let a () = Array.make keys 0 in
    s.stamp <- a (); s.order <- a (); s.parent <- a ();
    s.via <- a (); s.cand <- a (); s.after <- a (); s.run <- a ();
    s.trail <- a (); s.trail_slot <- a ()
  end;
  let nodes = Graph.n_nodes inst.graph in
  if Array.length s.masks < nodes then begin
    s.masks <- Array.make nodes 0;
    s.seen <- Array.make nodes 0;
    s.queue <- Array.make nodes 0
  end;
  let links = Graph.n_links inst.graph in
  if Array.length s.dead < links then s.dead <- Array.make links 0;
  s.gen <- s.gen + 1;
  Array.blit inst.machine.full 0 s.masks 0 nodes;
  fail_links ~fn inst.graph s failed;
  s

(* Switch arrivals from the injection to state [k]. *)
let rec arrivals s k = if k < 0 then 0 else 1 + arrivals s s.parent.(k)

let note_drop s ~from ~slot =
  if not s.dropped then begin
    s.dropped <- true;
    s.drop_from <- from;
    s.drop_slot <- slot
  end

(* Follows [slot] out of state [from] (-1: the injection). *)
let follow m s ~from ~slot ~after =
  let code = m.landing.(slot) in
  if code >= 0 then begin
    let k = target code ~after in
    if s.stamp.(k) <> s.gen then begin
      s.stamp.(k) <- s.gen;
      s.order.(s.n) <- k;
      s.n <- s.n + 1;
      s.parent.(k) <- from;
      s.via.(k) <- slot;
      s.run.(k) <- 0
    end
  end
  else if code = deliver then begin
    if s.min_deliver < 0 then s.min_deliver <- arrivals s from
  end
  else if code = drop then note_drop s ~from ~slot
  else invalid_arg "Verifier: edge-to-edge relay chain (unsupported topology)"

let in_port_of m key = ((key - m.base.(m.site_of_key.(key))) lsr 1) - 1

(* The BFS over the states reachable from the injection, each decided once
   through [Compiler.action_of]: discovery order is BFS order, so the
   first delivery seen is the shallowest, and the first drop seen ends the
   shortest drop witness. *)
let explore ~fn inst failed =
  let m = inst.machine in
  let s = scratch ~fn inst failed in
  s.n <- 0;
  s.min_deliver <- -1;
  s.dropped <- false;
  follow m s ~from:(-1) ~slot:(Array.length m.landing - 1) ~after:0;
  let head = ref 0 in
  while !head < s.n do
    let k = s.order.(!head) in
    incr head;
    let x = m.site_of_key.(k) in
    let st = m.tables.(x) in
    (match
       Compiler.action_of st ~mask:s.masks.(st.node) ~in_port:(in_port_of m k)
         ~deflected:(k land 1 = 1)
     with
     | Compiler.Drop -> s.cand.(k) <- 0; note_drop s ~from:k ~slot:(-1)
     | Compiler.Forward p -> s.cand.(k) <- 1 lsl p; s.after.(k) <- k land 1
     | Compiler.Deflect c -> s.cand.(k) <- c; s.after.(k) <- 1);
    let rest = ref s.cand.(k) and p = ref 0 in
    while !rest <> 0 do
      if !rest land 1 = 1 then
        follow m s ~from:k ~slot:(m.first_slot.(x) + !p) ~after:s.after.(k);
      rest := !rest lsr 1;
      incr p
    done
  done;
  s

exception Cycle of int

(* 3-colour DFS from state [k] at path depth [d], in port order: the
   longest run from [k] in switch arrivals, or [Cycle e] when the hop out
   of path depth [e] meets the path again. *)
let rec visit m s d k =
  s.run.(k) <- -1;
  s.trail.(d) <- k;
  let slot0 = m.first_slot.(m.site_of_key.(k)) in
  let best = ref 0 and rest = ref s.cand.(k) and p = ref 0 in
  while !rest <> 0 do
    (if !rest land 1 = 1 then
       let code = m.landing.(slot0 + !p) in
       if code >= 0 then begin
         let j = target code ~after:s.after.(k) in
         let r = s.run.(j) in
         s.trail_slot.(d) <- slot0 + !p;
         if r < 0 then raise_notrace (Cycle d);
         best := Int.max !best (if r = 0 then visit m s (d + 1) j else r)
       end);
    rest := !rest lsr 1;
    incr p
  done;
  s.run.(k) <- 1 + !best;
  1 + !best

(* Physical reachability of dst from src in g - F: the yardstick for the
   ideal-resilience comparison.  When this is false no routing scheme could
   deliver, and the failure set is classified [Disconnected] rather than
   held against KAR. *)
let connected inst s =
  s.seen.(inst.src) <- s.gen;
  s.queue.(0) <- inst.src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && s.queue.(!head) <> inst.dst do
    let v = s.queue.(!head) in
    incr head;
    let links = inst.machine.adj.(v) in
    for a = 0 to Array.length links - 1 do
      let id, far = links.(a) in
      if s.dead.(id) <> s.gen && s.seen.(far) <> s.gen then begin
        s.seen.(far) <- s.gen;
        s.queue.(!tail) <- far;
        incr tail
      end
    done
  done;
  !head < !tail

let verify inst ~failed =
  let s = explore ~fn:"verify" inst failed in
  (* Hop accounting matches Karnet: a switch arrival bumps the hop count
     and the decision only happens when hops <= ttl.  An acyclic run longer
     than the TTL still dies of TTL exhaustion (counted in the loop class:
     TTL death is how loops manifest in the engine). *)
  let can_loop =
    s.n > 0
    &&
    match visit inst.machine s 0 s.order.(0) with
    | r -> r > inst.ttl
    | exception Cycle _ -> true
  in
  let min_deliver_hops = s.min_deliver and can_drop = s.dropped in
  let can_deliver = min_deliver_hops >= 0 && min_deliver_hops <= inst.ttl in
  let outcome =
    { can_deliver; can_drop; can_loop; states = s.n; min_deliver_hops }
  in
  let classification =
    if not (connected inst s) then Disconnected
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

type step = {
  switch : int;
  in_port : int;
  out_port : int;
  via_computed : bool;
  deflected_before : bool;
  deflected_after : bool;
  stranded : int;
      (* label of the edge the packet stranded at (and was re-encoded by)
         after this hop, or -1 when it landed on a core switch / terminal *)
}

type refutation =
  | Drops of { steps : step list; at : int; at_in_port : int }
  | Loops of { prefix : step list; cycle : step list }

(* The hop out of state [k] through [slot]: steps are rebuilt only along
   a witness. *)
let step_of m s k slot =
  let x = m.site_of_key.(k) in
  let st = m.tables.(x) in
  let in_port = in_port_of m k and deflected = k land 1 = 1 in
  let action =
    Compiler.action_of st ~mask:s.masks.(st.node) ~in_port ~deflected
  in
  {
    switch = st.switch_id;
    in_port;
    out_port = slot - m.first_slot.(x);
    via_computed = (match action with Compiler.Forward _ -> true | _ -> false);
    deflected_before = deflected;
    deflected_after = s.after.(k) = 1;
    stranded = m.stranded.(slot);
  }

(* [refute inst ~failed] is one concrete failing run under F, or [None]
   when delivery is guaranteed (or immediate).  Prefers the drop witness
   (shorter traces): the BFS parent chain to the first drop, else the
   first lasso of the DFS.  Also returns the label of the edge the packet
   stranded at straight off injection (-1 normally) so the emitter can
   reproduce the initial re-encode. *)
let refute inst ~failed =
  let m = inst.machine in
  let s = explore ~fn:"refute" inst failed in
  let rec unwind k acc =
    if k < 0 || s.parent.(k) < 0 then acc
    else unwind s.parent.(k) (step_of m s s.parent.(k) s.via.(k) :: acc)
  in
  let trail lo hi =
    List.init (hi - lo) (fun d ->
        step_of m s s.trail.(lo + d) s.trail_slot.(lo + d))
  in
  let r =
    if s.dropped then
      let k = s.drop_from and slot = s.drop_slot in
      let steps = unwind k [] in
      if slot < 0 then
        let at = m.tables.(m.site_of_key.(k)).switch_id in
        Some (Drops { steps; at; at_in_port = in_port_of m k })
      else
        let last = if k < 0 then [] else [ step_of m s k slot ] in
        let at = m.drop_at.(slot) and at_in_port = m.drop_in.(slot) in
        Some (Drops { steps = steps @ last; at; at_in_port })
    else if s.n = 0 then None
    else
      match visit m s 0 s.order.(0) with
      | _ -> None
      | exception Cycle top ->
        let after = s.after.(s.trail.(top)) in
        let close_to = target m.landing.(s.trail_slot.(top)) ~after in
        let rec start e = if s.trail.(e) = close_to then e else start (e + 1) in
        let e = start 0 in
        Some (Loops { prefix = trail 0 e; cycle = trail e (top + 1) })
  in
  (r, m.stranded.(Array.length m.landing - 1))
