module Z = Bignum.Z
module Graph = Topo.Graph

type plan = {
  route_id : Z.t;
  modulus : Z.t;
  residues : Rns.residue list;
  core_path : Graph.node list;
  protection : (int * int) list;
  bit_length : int;
}

type error =
  | Rns_error of Rns.error
  | Not_adjacent of int * int
  | Not_core of int
  | Port_not_encodable of int * int
  | Duplicate_switch of int
  | Unknown_switch of int

let pp_error ppf = function
  | Rns_error e -> Rns.pp_error ppf e
  | Not_adjacent (a, b) -> Format.fprintf ppf "SW%d and SW%d are not adjacent" a b
  | Not_core l -> Format.fprintf ppf "node %d is not a core switch" l
  | Port_not_encodable (s, p) ->
    Format.fprintf ppf "port %d of SW%d is not encodable (port >= switch ID)" p s
  | Duplicate_switch s ->
    Format.fprintf ppf
      "SW%d already carries a residue; a switch can appear only once per route ID" s
  | Unknown_switch l -> Format.fprintf ppf "no node is labelled %d" l

let ( let* ) = Result.bind

let node g label =
  match Graph.find_label g label with
  | Some v -> Ok v
  | None -> Error (Unknown_switch label)

let rec nodes g = function
  | [] -> Ok []
  | l :: rest ->
    let* v = node g l in
    let* vs = nodes g rest in
    Ok (v :: vs)

(* Build a residue for switch node [v] exiting through [port]. *)
let residue g v port =
  let id = Graph.label g v in
  if not (Graph.is_core g v) then Error (Not_core id)
  else if port >= id then Error (Port_not_encodable (id, port))
  else Ok { Rns.modulus = id; value = port }

let encode_plan ~core_path ~protection residues =
  match Rns.encode residues with
  | Error e -> Error (Rns_error e)
  | Ok (route_id, modulus) ->
    Ok
      {
        route_id;
        modulus;
        residues;
        core_path;
        protection;
        bit_length = Rns.bit_length_bound modulus;
      }

let check_no_duplicates residues =
  let rec go seen = function
    | [] -> Ok ()
    | r :: rest ->
      if List.mem r.Rns.modulus seen then Error (Duplicate_switch r.Rns.modulus)
      else go (r.Rns.modulus :: seen) rest
  in
  go [] residues

let of_core_path g path ~egress_port =
  let rec residues acc = function
    | [] -> Ok (List.rev acc)
    | [ last ] ->
      let* r = residue g last egress_port in
      Ok (List.rev (r :: acc))
    | a :: (b :: _ as rest) ->
      (match Graph.port_towards g a b with
       | None -> Error (Not_adjacent (Graph.label g a, Graph.label g b))
       | Some p ->
         let* r = residue g a p in
         residues (r :: acc) rest)
  in
  match path with
  | [] -> Error (Rns_error Rns.Empty_system)
  | _ ->
    let* rs = residues [] path in
    let* () = check_no_duplicates rs in
    encode_plan ~core_path:path ~protection:[] rs

let of_labels g labels ~egress_label =
  let* nodes = nodes g labels in
  match List.rev nodes with
  | [] -> Error (Rns_error Rns.Empty_system)
  | last :: _ ->
    let* egress = node g egress_label in
    (match Graph.port_towards g last egress with
     | None -> Error (Not_adjacent (Graph.label g last, egress_label))
     | Some p -> of_core_path g nodes ~egress_port:p)

(* The residue a protection hop [(switch, next)] adds to a plan. *)
let hop_residue g (s_label, next_label) =
  let* s = node g s_label in
  let* next = node g next_label in
  match Graph.port_towards g s next with
  | None -> Error (Not_adjacent (s_label, next_label))
  | Some p -> residue g s p

let protect g plan hops =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | hop :: rest ->
      let* r = hop_residue g hop in
      build (r :: acc) rest
  in
  let* extra = build [] hops in
  let residues = plan.residues @ extra in
  let* () = check_no_duplicates residues in
  encode_plan ~core_path:plan.core_path ~protection:(plan.protection @ hops) residues

let raise_error e = invalid_arg (Format.asprintf "Route: %a" pp_error e)

(* The per-hop fold [protect g acc [hop]] (keeping [acc] on error) re-runs
   the whole CRT for every hop.  Each of its checks depends only on the
   residues accepted so far, so they run here against the running modulus
   product instead: a new switch ID [s > 1] is accepted iff it is coprime
   with that product, which also rules out a duplicate switch.  The
   accepted residues are then encoded once; by uniqueness of the CRT value
   below the modulus the plan equals the fold's, field for field. *)
let protect_skipping ?(max_bits = max_int) g plan hops =
  let rec go m extra kept = function
    | [] -> (List.rev extra, List.rev kept)
    | hop :: rest ->
      (match hop_residue g hop with
       | Ok r
         when r.Rns.modulus > 1
              && Rns.coprime r.Rns.modulus (Z.rem_int m r.Rns.modulus) ->
         let m' = Z.mul m (Z.of_int r.Rns.modulus) in
         if Rns.bit_length_bound m' <= max_bits then
           go m' (r :: extra) (hop :: kept) rest
         else go m extra kept rest
       | Ok _ | Error _ -> go m extra kept rest)
  in
  match go plan.modulus [] [] hops with
  | [], _ -> plan
  | extra, kept ->
    (match
       encode_plan ~core_path:plan.core_path
         ~protection:(plan.protection @ kept) (plan.residues @ extra)
     with
     | Ok p -> p
     | Error e -> raise_error e)

let of_labels_exn g labels ~egress_label =
  match of_labels g labels ~egress_label with
  | Ok p -> p
  | Error e -> raise_error e

let protect_exn g plan hops =
  match protect g plan hops with
  | Ok p -> p
  | Error e -> raise_error e

let verify plan =
  List.filter_map
    (fun r ->
      let got = Rns.port plan.route_id r.Rns.modulus in
      if got = r.Rns.value then None else Some (r.Rns.modulus, r.Rns.value, got))
    plan.residues
