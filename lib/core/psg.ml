open Spike_support
open Spike_isa
open Spike_ir

type node_kind =
  | Entry of { routine : int; label : string }
  | Exit of { routine : int; block : int }
  | Call of { routine : int; block : int }
  | Return of { routine : int; call_block : int; block : int }
  | Branch of { routine : int; block : int }
  | Unknown_exit of { routine : int; block : int }

type external_class = {
  x_used : Regset.t;
  x_defined : Regset.t;
  x_killed : Regset.t;
}

let no_externals _ = None

type call_target = Target_routine of int | Target_external of external_class

type call_info = {
  call_node : int;
  return_node : int;
  cr_edge : int;
  callee : Insn.callee;
  targets : call_target list option;
  call_def : Regset.t;
  call_use : Regset.t;
}

type t = {
  program : Program.t;
  kinds : node_kind array;
  sets : Regset.t array;
  live : Regset.t array;
  src : int array;
  dst : int array;
  labels : Regset.t array;
  out_off : int array;
  out_adj : int array;
  in_off : int array;
  in_adj : int array;
  calls : call_info array;
  callers_of : int list array;
  entry_nodes : int list array;
  exit_nodes : int list array;
  unknown_exit_nodes : int list array;
  entry_filter : Regset.t array;
}

let node_count t = Array.length t.kinds
let edge_count t = Array.length t.src

(* Every call site has exactly one call-return edge. *)
let flow_edge_count t = edge_count t - Array.length t.calls

let primary_entry_node t r =
  match t.entry_nodes.(r) with
  | n :: _ -> n
  | [] -> invalid_arg "Psg.primary_entry_node: routine has no entry node"

let node_routine = function
  | Entry { routine; _ }
  | Exit { routine; _ }
  | Call { routine; _ }
  | Return { routine; _ }
  | Branch { routine; _ }
  | Unknown_exit { routine; _ } ->
      routine

type offsets = { first_node : int array; first_edge : int array; first_call : int array }

(* Nodes, edges and calls are laid out routine by routine: one pass over
   the node kinds counts every routine's nodes, and edges and calls,
   ordered by their source or call node, split at the routines' first
   nodes. *)
let offsets t =
  let routines = Program.routine_count t.program in
  let first_node = Array.make (routines + 1) 0 in
  Array.iter
    (fun kind ->
      let r = node_routine kind in
      first_node.(r + 1) <- first_node.(r + 1) + 1)
    t.kinds;
  for r = 0 to routines - 1 do
    first_node.(r + 1) <- first_node.(r) + first_node.(r + 1)
  done;
  let split len node_at =
    let first = Array.make (routines + 1) len and i = ref 0 in
    for r = 0 to routines - 1 do
      first.(r) <- !i;
      while !i < len && node_at !i < first_node.(r + 1) do
        incr i
      done
    done;
    first
  in
  {
    first_node;
    first_edge = split (edge_count t) (Array.get t.src);
    first_call = split (Array.length t.calls) (fun c -> t.calls.(c).call_node);
  }

let kind_index = function
  | Entry _ -> 0
  | Exit _ -> 1
  | Call _ -> 2
  | Return _ -> 3
  | Branch _ -> 4
  | Unknown_exit _ -> 5

let kind_names = [| "entry"; "exit"; "call"; "return"; "branch"; "unknown_exit" |]

let iter_routine_targets t f =
  Array.iter
    (fun info ->
      Option.iter
        (List.iter (function Target_routine r -> f info r | Target_external _ -> ()))
        info.targets)
    t.calls

let call_graph t =
  let n = Program.routine_count t.program in
  let off, adj =
    Scc.csr n (fun f ->
        iter_routine_targets t (fun info r ->
            f (node_routine t.kinds.(info.call_node)) r))
  in
  (* One edge per distinct (caller, callee) pair: a routine with many call
     sites to the same callee would otherwise multiply every traversal's
     edge work by its site count.  Rows are sorted and compacted in place;
     [start] is the uncompacted start of row [r]. *)
  let w = ref 0 and start = ref 0 in
  for r = 0 to n - 1 do
    let row = Array.sub adj !start (off.(r + 1) - !start) in
    Array.sort Int.compare row;
    start := off.(r + 1);
    off.(r) <- !w;
    Array.iteri
      (fun i v ->
        if i = 0 || v <> row.(i - 1) then begin
          adj.(!w) <- v;
          incr w
        end)
      row
  done;
  off.(n) <- !w;
  (off, Array.sub adj 0 !w)

let call_scc t =
  let off, adj = call_graph t in
  Scc.compute_csr ~off ~adj

let kind_string t kind =
  let rname r = (Program.get t.program r).Routine.name in
  match kind with
  | Entry { routine; label } -> Printf.sprintf "entry(%s:%s)" (rname routine) label
  | Exit { routine; block } -> Printf.sprintf "exit(%s:B%d)" (rname routine) block
  | Call { routine; block } -> Printf.sprintf "call(%s:B%d)" (rname routine) block
  | Return { routine; call_block; _ } ->
      Printf.sprintf "return(%s:B%d)" (rname routine) call_block
  | Branch { routine; block } -> Printf.sprintf "branch(%s:B%d)" (rname routine) block
  | Unknown_exit { routine; block } ->
      Printf.sprintf "jmp?(%s:B%d)" (rname routine) block

let pp_node t ppf n =
  let pr = Regset.pp ~name:Reg.name in
  Format.fprintf ppf "N%d %s  may-use=%a may-def=%a must-def=%a live=%a" n
    (kind_string t t.kinds.(n)) pr t.sets.(3 * n) pr t.sets.((3 * n) + 1) pr
    t.sets.((3 * n) + 2) pr t.live.(n)

let pp ppf t =
  Format.fprintf ppf "psg: %d nodes, %d edges@." (node_count t) (edge_count t);
  for n = 0 to node_count t - 1 do
    Format.fprintf ppf "  %a@." (pp_node t) n
  done;
  let pr = Regset.pp ~name:Reg.name in
  for e = 0 to edge_count t - 1 do
    let kind =
      match t.kinds.(t.src.(e)) with
      | Call _ -> "call-ret"
      | Entry _ | Exit _ | Return _ | Branch _ | Unknown_exit _ -> "flow"
    in
    Format.fprintf ppf "  E%d %s N%d -> N%d  may-use=%a may-def=%a must-def=%a@." e kind
      t.src.(e) t.dst.(e) pr t.labels.(3 * e) pr t.labels.((3 * e) + 1) pr
      t.labels.((3 * e) + 2)
  done
