type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# KAR topology\n";
  Graph.iter_nodes g ~f:(fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s\n" (Graph.label g v)
           (match Graph.kind g v with Graph.Core -> "core" | Graph.Edge -> "edge")));
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "link %d:%d %d:%d %.17g %.17g\n"
           (Graph.label g l.Graph.ep0.Graph.node)
           l.Graph.ep0.Graph.port
           (Graph.label g l.Graph.ep1.Graph.node)
           l.Graph.ep1.Graph.port l.Graph.rate_bps l.Graph.delay_s))
    (Graph.links g);
  Buffer.contents buf

let max_core_label = (1 lsl 31) - 1

let parse_endpoint line s =
  match String.split_on_char ':' s with
  | [ label; port ] ->
    (try Ok (int_of_string label, int_of_string port)
     with Failure _ -> Error { line; message = "bad endpoint " ^ s })
  | _ -> Error { line; message = "endpoint must be <label>:<port>, got " ^ s }

let of_string s =
  let b = Graph.Builder.create () in
  let nodes = Hashtbl.create 64 in
  let exception Fail of error in
  let fail line message = raise (Fail { line; message }) in
  try
    String.split_on_char '\n' s
    |> List.iteri (fun idx raw ->
           let line = idx + 1 in
           let text =
             match String.index_opt raw '#' with
             | Some i -> String.sub raw 0 i
             | None -> raw
           in
           let fields =
             String.split_on_char ' ' text
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun f -> f <> "")
           in
           match fields with
           | [] -> ()
           | "node" :: label :: kind :: [] ->
             let label =
               try int_of_string label
               with Failure _ -> fail line ("bad node label " ^ label)
             in
             let kind =
               match kind with
               | "core" -> Graph.Core
               | "edge" -> Graph.Edge
               | other -> fail line ("unknown node kind " ^ other)
             in
             (* A core label is a switch ID, the modulus of <R>_s: both
                remainder kernels are defined for 1 .. 2^31 - 1 only. *)
             if kind = Graph.Core && (label < 1 || label > max_core_label) then
               fail line
                 (Printf.sprintf "core label %d outside 1 .. %d" label
                    max_core_label);
             if Hashtbl.mem nodes label then fail line "duplicate node label";
             (try Hashtbl.replace nodes label (Graph.Builder.add_node b ~kind label)
              with Invalid_argument m -> fail line m)
           | "link" :: a :: bep :: rest ->
             let la, pa =
               match parse_endpoint line a with Ok v -> v | Error e -> raise (Fail e)
             in
             let lb, pb =
               match parse_endpoint line bep with Ok v -> v | Error e -> raise (Fail e)
             in
             let rate_bps, delay_s =
               match rest with
               | [] -> (None, None)
               | [ r ] ->
                 (try (Some (float_of_string r), None)
                  with Failure _ -> fail line ("bad rate " ^ r))
               | [ r; d ] ->
                 (try (Some (float_of_string r), Some (float_of_string d))
                  with Failure _ -> fail line "bad rate/delay")
               | _ -> fail line "too many link fields"
             in
             let node label =
               match Hashtbl.find_opt nodes label with
               | Some v -> v
               | None -> fail line (Printf.sprintf "unknown node %d" label)
             in
             (try
                ignore
                  (Graph.Builder.add_link_at b ?rate_bps ?delay_s (node la, pa)
                     (node lb, pb))
              with Invalid_argument m -> fail line m)
           | verb :: _ -> fail line ("unknown record " ^ verb));
    (try Ok (Graph.Builder.finish b)
     with Invalid_argument m -> Error { line = 0; message = m })
  with Fail e -> Error e

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))
