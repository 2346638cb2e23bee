type t = {
  n_regions : int;
  region_of : int array;
  cut_links : Graph.link_id list;
  cut_ratio : float;
}

(* Plain BFS distance vector from [src], hop metric, whole graph. *)
let distances g src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u q
        end)
      (Graph.neighbors g v)
  done;
  dist

(* Farthest-first seed spreading: node 0, then repeatedly the node
   maximising the distance to its nearest seed (lowest index on ties, so
   the result is deterministic). *)
let spread_seeds g ~regions =
  let n = Graph.n_nodes g in
  let nearest = Array.make n max_int in
  let seeds = ref [ 0 ] in
  let absorb s =
    let d = distances g s in
    for v = 0 to n - 1 do
      if d.(v) < nearest.(v) then nearest.(v) <- d.(v)
    done
  in
  absorb 0;
  for _ = 2 to regions do
    let best = ref (-1) and best_d = ref (-1) in
    for v = 0 to n - 1 do
      if nearest.(v) <> max_int && nearest.(v) > !best_d then begin
        best := v;
        best_d := nearest.(v)
      end
    done;
    if !best < 0 then invalid_arg "Partition.make: graph is disconnected";
    seeds := !best :: !seeds;
    absorb !best
  done;
  Array.of_list (List.rev !seeds)

let make g ~regions =
  let n = Graph.n_nodes g in
  if regions < 1 then invalid_arg "Partition.make: regions must be >= 1";
  if regions > n then
    invalid_arg
      (Printf.sprintf
         "Partition.make: %d regions requested but the graph has only %d \
          nodes"
         regions n);
  let region_of = Array.make n (-1) in
  if regions = 1 then Array.fill region_of 0 n 0
  else begin
    let seeds = spread_seeds g ~regions in
    Array.iteri (fun r s -> region_of.(s) <- r) seeds;
    let size = Array.make regions 1 in
    let assigned = ref regions in
    (* Min-cut-biased growth: the smallest still-growable region claims
       the unassigned neighbour with the most neighbours already inside
       it (ties: lowest node index).  Regions whose whole frontier is
       claimed stop growing; the rest absorb what remains, so the
       partition always covers the graph. *)
    let frontier_pick r =
      let best = ref (-1) and best_score = ref (-1) in
      for v = 0 to n - 1 do
        if region_of.(v) = -1 then begin
          let inside = ref 0 and touches = ref false in
          List.iter
            (fun u ->
              if region_of.(u) = r then begin
                touches := true;
                incr inside
              end)
            (Graph.neighbors g v);
          if !touches && !inside > !best_score then begin
            best := v;
            best_score := !inside
          end
        end
      done;
      !best
    in
    let stalled = Array.make regions false in
    while !assigned < n do
      (* smallest non-stalled region *)
      let r = ref (-1) in
      for c = regions - 1 downto 0 do
        if (not stalled.(c)) && (!r < 0 || size.(c) <= size.(!r)) then r := c
      done;
      if !r < 0 then invalid_arg "Partition.make: graph is disconnected";
      match frontier_pick !r with
      | -1 -> stalled.(!r) <- true
      | v ->
        region_of.(v) <- !r;
        size.(!r) <- size.(!r) + 1;
        incr assigned
    done
  end;
  let cut_links =
    List.filter_map
      (fun (l : Graph.link) ->
        if region_of.(l.Graph.ep0.Graph.node) <> region_of.(l.Graph.ep1.Graph.node)
        then Some l.Graph.id
        else None)
      (Graph.links g)
  in
  let n_links = Graph.n_links g in
  let cut_ratio =
    if n_links = 0 then 0.0
    else float_of_int (List.length cut_links) /. float_of_int n_links
  in
  { n_regions = regions; region_of; cut_links; cut_ratio }

let validate p g =
  let n = Graph.n_nodes g in
  if Array.length p.region_of <> n then Error "region_of length mismatch"
  else begin
    let bad = ref None in
    Array.iteri
      (fun v r ->
        if r < 0 || r >= p.n_regions then
          bad := Some (Printf.sprintf "node %d has region %d" v r))
      p.region_of;
    match !bad with
    | Some e -> Error e
    | None ->
      let size = Array.make p.n_regions 0 in
      Array.iter (fun r -> size.(r) <- size.(r) + 1) p.region_of;
      (match Array.to_list size |> List.find_opt (fun s -> s = 0) with
       | Some _ -> Error "empty region"
       | None ->
         (* connectivity: BFS inside each region from its first node *)
         let seen = Array.make n false in
         let connected r =
           let start = ref (-1) in
           for v = n - 1 downto 0 do
             if p.region_of.(v) = r then start := v
           done;
           let q = Queue.create () in
           let count = ref 0 in
           seen.(!start) <- true;
           Queue.push !start q;
           while not (Queue.is_empty q) do
             let v = Queue.pop q in
             incr count;
             List.iter
               (fun u ->
                 if p.region_of.(u) = r && not seen.(u) then begin
                   seen.(u) <- true;
                   Queue.push u q
                 end)
               (Graph.neighbors g v)
           done;
           !count = size.(r)
         in
         let rec check r =
           if r = p.n_regions then Ok ()
           else if connected r then check (r + 1)
           else Error (Printf.sprintf "region %d is disconnected" r)
         in
         check 0)
  end
