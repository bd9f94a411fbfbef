type t = {
  nodes : int;
  edges : int;
  flow_edges : int;
  call_return_edges : int;
  entry_nodes : int;
  exit_nodes : int;
  call_nodes : int;
  return_nodes : int;
  branch_nodes : int;
  unknown_exit_nodes : int;
}

let of_psg (psg : Psg.t) =
  let by_tag = Array.make Psg.Kind.count 0 in
  Array.iter (fun k -> by_tag.(Psg.Kind.tag k) <- by_tag.(Psg.Kind.tag k) + 1) psg.kinds;
  let flow = Psg.flow_edge_count psg in
  let total_edges = Psg.edge_count psg in
  {
    nodes = Psg.node_count psg;
    edges = total_edges;
    flow_edges = flow;
    call_return_edges = total_edges - flow;
    entry_nodes = by_tag.(Psg.Kind.entry);
    exit_nodes = by_tag.(Psg.Kind.exit);
    call_nodes = by_tag.(Psg.Kind.call);
    return_nodes = by_tag.(Psg.Kind.return);
    branch_nodes = by_tag.(Psg.Kind.branch);
    unknown_exit_nodes = by_tag.(Psg.Kind.unknown_exit);
  }

let nodes_per_routine t ~routines = float_of_int t.nodes /. float_of_int (max routines 1)
let edges_per_routine t ~routines = float_of_int t.edges /. float_of_int (max routines 1)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>psg: %d nodes (%d entry, %d exit, %d call, %d return, %d branch, %d \
     unknown-exit)@ %d edges (%d flow, %d call-return)@]"
    t.nodes t.entry_nodes t.exit_nodes t.call_nodes t.return_nodes t.branch_nodes
    t.unknown_exit_nodes t.edges t.flow_edges t.call_return_edges
