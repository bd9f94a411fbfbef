open Spike_support
open Spike_isa
open Spike_ir

module Kind = struct
  let entry = 0
  let exit = 1
  let call = 2
  let return = 3
  let branch = 4
  let unknown_exit = 5
  let count = 6
  let names = [| "entry"; "exit"; "call"; "return"; "branch"; "unknown_exit" |]

  (* tag: bits 0-2; block (entry position): bits 3-32; routine: 33 up. *)
  let block_bits = 30
  let routine_shift = 3 + block_bits
  let max_block = (1 lsl block_bits) - 1
  let local_mask = (1 lsl routine_shift) - 1
  let pack ~tag ~block = tag lor (block lsl 3)
  let tag k = k land 7
  let block k = (k lsr 3) land max_block
  let routine k = k lsr routine_shift
  let in_routine r k = (k land local_mask) lor (r lsl routine_shift)
  let local k = k land local_mask
end

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

type t = {
  program : Program.t;
  kinds : int array;
  sets : Regset.t array;
  live : Regset.t array;
  dst : int array;
  labels : Regset.t array;
  out_off : int array;
  call_node : int array;
  call_def : Regset.t array;
  call_use : Regset.t array;
  callee : Insn.callee array;
  target_off : int array;
  targets : int array;
  externals : external_class array;
  entries_off : int array;
  entry_nodes : int array;
  exits_off : int array;
  exit_nodes : int array;
  unknown_off : int array;
  unknown_exit_nodes : int array;
  first_node : int array;
  first_edge : int array;
  first_call : int array;
  entry_filter : Regset.t array;
}

let node_count t = Array.length t.kinds
let edge_count t = Array.length t.dst
let call_count t = Array.length t.call_node

(* Every call site has exactly one call-return edge. *)
let flow_edge_count t = edge_count t - call_count t
let tag t n = Kind.tag t.kinds.(n)
let routine_of_node t n = Kind.routine t.kinds.(n)
let block t n = Kind.block t.kinds.(n)
let return_node t c = t.call_node.(c) + 1
let cr_edge t c = t.out_off.(t.call_node.(c))

(* Calls are numbered in call-node order, each routine's contiguously. *)
let call_of_node t n =
  let r = routine_of_node t n in
  let lo = ref t.first_call.(r) and hi = ref (t.first_call.(r + 1) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.call_node.(mid) < n then lo := mid + 1 else hi := mid
  done;
  !lo
let resolved t c = t.target_off.(c) < t.target_off.(c + 1)

let primary_entry_node t r =
  if t.entries_off.(r) = t.entries_off.(r + 1) then
    invalid_arg "Psg.primary_entry_node: routine has no entry node";
  t.entry_nodes.(t.entries_off.(r))

let kind t n =
  let k = t.kinds.(n) in
  let routine = Kind.routine k and block = Kind.block k in
  match Kind.tag k with
  | 0 ->
      let label = List.nth (Program.get t.program routine).Routine.entries block in
      Entry { routine; label }
  | 1 -> Exit { routine; block }
  | 2 -> Call { routine; block }
  | 3 -> Return { routine; call_block = Kind.block t.kinds.(n - 1); block }
  | 4 -> Branch { routine; block }
  | _ -> Unknown_exit { routine; block }

let node_routine = function
  | Entry { routine; _ }
  | Exit { routine; _ }
  | Call { routine; _ }
  | Return { routine; _ }
  | Branch { routine; _ }
  | Unknown_exit { routine; _ } ->
      routine

let target t x = if x >= 0 then Target_routine x else Target_external t.externals.(-1 - x)

let call_targets t c =
  if resolved t c then
    Some
      (List.init (t.target_off.(c + 1) - t.target_off.(c)) (fun i ->
           target t t.targets.(t.target_off.(c) + i)))
  else None

let iter_out_edges t n f =
  for e = t.out_off.(n) to t.out_off.(n + 1) - 1 do
    f e
  done

let row off adj r = List.init (off.(r + 1) - off.(r)) (fun i -> adj.(off.(r) + i))
let entry_node_list t r = row t.entries_off t.entry_nodes r
let exit_node_list t r = row t.exits_off t.exit_nodes r
let unknown_exit_node_list t r = row t.unknown_off t.unknown_exit_nodes r

let iter_routine_targets t f =
  for c = 0 to call_count t - 1 do
    for i = t.target_off.(c) to t.target_off.(c + 1) - 1 do
      let x = t.targets.(i) in
      if x >= 0 then f c x
    done
  done

let routine_callees t r =
  let acc = ref [] in
  for c = t.first_call.(r) to t.first_call.(r + 1) - 1 do
    for i = t.target_off.(c) to t.target_off.(c + 1) - 1 do
      let x = t.targets.(i) in
      if x >= 0 then acc := x :: !acc
    done
  done;
  List.sort_uniq Int.compare !acc

let call_graph t =
  let n = Program.routine_count t.program in
  let off, adj =
    Scc.csr n (fun f -> iter_routine_targets t (fun c r -> f (routine_of_node t t.call_node.(c)) r))
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

let kind_string t n =
  let rname r = (Program.get t.program r).Routine.name in
  match kind t n with
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
    (kind_string t n) pr t.sets.(3 * n) pr t.sets.((3 * n) + 1) pr
    t.sets.((3 * n) + 2) pr t.live.(n)

let pp ppf t =
  Format.fprintf ppf "psg: %d nodes, %d edges@." (node_count t) (edge_count t);
  for n = 0 to node_count t - 1 do
    Format.fprintf ppf "  %a@." (pp_node t) n
  done;
  let pr = Regset.pp ~name:Reg.name in
  for n = 0 to node_count t - 1 do
    let kind = if tag t n = Kind.call then "call-ret" else "flow" in
    iter_out_edges t n (fun e ->
        Format.fprintf ppf "  E%d %s N%d -> N%d  may-use=%a may-def=%a must-def=%a@." e kind n
          t.dst.(e) pr t.labels.(3 * e) pr t.labels.((3 * e) + 1) pr t.labels.((3 * e) + 2))
  done
