module Graph = Topo.Graph

type action =
  | Forward of int
  | Deflect of int
  | Drop

type switch_table = {
  node : Graph.node;
  switch_id : int;
  degree : int;
  primary : int;
  actions : action array;
}

type t = {
  graph : Graph.t;
  plan : Kar.Route.plan;
  policy : Kar.Policy.t;
  tables : switch_table option array;
}

(* actions.(slot mask in_port deflected): in_port ranges over -1 (local
   injection) and the real ports, so a row is 2 * (degree + 1) entries and
   the whole table 2^degree of them. *)
let slot ~degree ~mask ~in_port ~deflected =
  (((mask * (degree + 1)) + (in_port + 1)) * 2) + if deflected then 1 else 0

let action_of st ~mask ~in_port ~deflected =
  if mask < 0 || mask lsr st.degree <> 0 then
    invalid_arg "Compiler.action_of: mask out of range";
  if in_port < -1 || in_port >= st.degree then
    invalid_arg "Compiler.action_of: in_port out of range";
  st.actions.(slot ~degree:st.degree ~mask ~in_port ~deflected)

let full_mask st = (1 lsl st.degree) - 1

let mask_of_failures g ~node ~failed =
  let degree = Graph.degree g node in
  let rec go p acc =
    if p >= degree then acc
    else
      go (p + 1)
        (if failed (Graph.link_at g node p).Graph.id then acc
         else acc lor (1 lsl p))
  in
  go 0 0

(* One live set per mask, reused across the mask's cells. *)
let compile_switch g ~plan ~policy v =
  let switch_id = Graph.label g v in
  let degree = Graph.degree g v in
  let primary = Rns.port plan.Kar.Route.route_id switch_id in
  let n_masks = 1 lsl degree in
  let actions = Array.make (n_masks * (degree + 1) * 2) Drop in
  let live = Array.make degree false in
  for mask = 0 to n_masks - 1 do
    for p = 0 to degree - 1 do
      live.(p) <- mask land (1 lsl p) <> 0
    done;
    for in_port = -1 to degree - 1 do
      for flag = 0 to 1 do
        let deflected = flag = 1 in
        let c =
          Kar.Policy.step policy ~computed:primary ~in_port ~deflected ~live
        in
        actions.(slot ~degree ~mask ~in_port ~deflected) <-
          (if c >= 0 then Forward c
           else if c = Kar.Policy.stuck then Drop
           else
             match Kar.Policy.excluded c with
             | -1 -> Deflect mask
             | e -> Deflect (mask land lnot (1 lsl e)))
      done
    done
  done;
  { node = v; switch_id; degree; primary; actions }

exception Degree_too_large of { switch_id : int; degree : int }

let max_degree = 12

let () =
  Printexc.register_printer (function
    | Degree_too_large { switch_id; degree } ->
      Some
        (Printf.sprintf
           "Compiler: switch %d has degree %d; compiled tables cover degree \
            <= %d"
           switch_id degree max_degree)
    | _ -> None)

let compile g ~plan ~policy =
  List.iter
    (fun v ->
      let degree = Graph.degree g v in
      if degree > max_degree then
        raise (Degree_too_large { switch_id = Graph.label g v; degree }))
    (Graph.core_nodes g);
  let tables = Array.make (Graph.n_nodes g) None in
  List.iter
    (fun v -> tables.(v) <- Some (compile_switch g ~plan ~policy v))
    (Graph.core_nodes g);
  { graph = g; plan; policy; tables }

let table t v = t.tables.(v)

let table_exn t v =
  match t.tables.(v) with
  | Some st -> st
  | None ->
    invalid_arg
      (Printf.sprintf "Compiler.table_exn: node %d is not a core switch" v)

let is_protected t switch_id =
  List.exists (fun r -> r.Rns.modulus = switch_id) t.plan.Kar.Route.residues

let pp_action ppf = function
  | Forward p -> Format.fprintf ppf "forward:%d" p
  | Deflect m ->
    let rec ports p acc =
      if 1 lsl p > m then List.rev acc
      else ports (p + 1) (if m land (1 lsl p) <> 0 then p :: acc else acc)
    in
    Format.fprintf ppf "deflect:{%s}"
      (String.concat "," (List.map string_of_int (ports 0 [])))
  | Drop -> Format.pp_print_string ppf "drop"
