module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet

module Graph = Topo.Graph

type t = {
  flows : (int, Flow.t) Hashtbl.t;
  controller : Kar.Controller.cache;
}

let dispatch stack net (packet : Packet.t) =
  match Packet.payload packet with
  | Flow.Data { flow; seq } ->
    (match Hashtbl.find_opt stack.flows flow with
     | Some f -> Flow.handle_data f net ~seq
     | None -> ())
  | Flow.Ack { flow; ackno; sacks; dsack } ->
    (match Hashtbl.find_opt stack.flows flow with
     | Some f -> Flow.handle_ack f net ~ackno ~sacks ~dsack
     | None -> ())
  | _ -> ()

let create ~net ?(reencode_delay_s = 1e-3) () =
  let stack =
    { flows = Hashtbl.create 16; controller = Kar.Controller.create_cache (Net.graph net) }
  in
  List.iter
    (fun v ->
      Karnet.install_edge net v ~reencode_delay_s
        ~reencode:(fun packet ->
          Kar.Controller.reencode stack.controller ~at:v ~dst:(Packet.dst packet))
        ~receive:(fun net packet -> dispatch stack net packet)
        ())
    (Graph.edge_nodes (Net.graph net));
  stack

let register stack flow = Hashtbl.replace stack.flows (Flow.id flow) flow
let unregister stack flow_id = Hashtbl.remove stack.flows flow_id
