open Spike_support
open Spike_isa
open Spike_ir

type ending = Ends_plain | Ends_call | Ends_ret | Ends_switch | Ends_jump_unknown

type t = {
  routine : Routine.t;
  first : int array;
  endings : Bytes.t;
  succ_off : int array;
  succ_adj : int array;
  entry_blocks : (string * int) list;
}

(* An ending's byte is its constructor's position in [tags]. *)
let tags = [| Ends_plain; Ends_call; Ends_ret; Ends_switch; Ends_jump_unknown |]

let tag_of insn =
  match insn with
  | Insn.Call _ -> '\001'
  | Insn.Ret -> '\002'
  | Insn.Switch _ -> '\003'
  | Insn.Jump_unknown _ -> '\004'
  | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
  | Insn.Br _ | Insn.Bcond _ | Insn.Nop ->
      '\000'

(* The last block whose first instruction is at or before [i]. *)
let search first i =
  let lo = ref 0 and hi = ref (Array.length first - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if first.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let build (routine : Routine.t) =
  let insns = routine.insns in
  let len = Array.length insns in
  assert (len > 0);
  (* Label positions, first binding first (as Routine.label_index); the
     routine is validated, so every entry and target is defined. *)
  let positions = Hashtbl.create 16 in
  List.iter
    (fun (l, i) -> if not (Hashtbl.mem positions l) then Hashtbl.add positions l i)
    routine.labels;
  let label_index l = Hashtbl.find positions l in
  (* Leaders: first instruction, every labelled branch target / entry, and
     every instruction following a block-ending instruction.  Slot [len]
     absorbs marks past the end.  [targets] bounds the branch arcs. *)
  let leader = Bytes.make (len + 1) '\000' in
  let mark i = Bytes.set leader i '\001' in
  mark 0;
  List.iter (fun entry -> mark (label_index entry)) routine.entries;
  let targets = ref 0 in
  for i = 0 to len - 1 do
    match insns.(i) with
    | Insn.Br { target } | Insn.Bcond { target; _ } ->
        mark (label_index target);
        incr targets;
        mark (i + 1)
    | Insn.Switch { table; _ } ->
        Array.iter (fun l -> mark (label_index l)) table;
        targets := !targets + Array.length table;
        mark (i + 1)
    | Insn.Jump_unknown _ | Insn.Call _ | Insn.Ret -> mark (i + 1)
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
    | Insn.Nop ->
        ()
  done;
  let nblocks = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get leader i <> '\000' then incr nblocks
  done;
  let nblocks = !nblocks in
  let first = Array.make (nblocks + 1) len in
  let b = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get leader i <> '\000' then begin
      first.(!b) <- i;
      incr b
    end
  done;
  let target_block l =
    let i = label_index l in
    assert (i < len);
    search first i
  in
  (* Successors from each block's final instruction, in one pass: a
     block's arcs are added together, so [added.(dst) = src] marks a
     duplicate arc.  The fallthrough of block [b] is block [b + 1]. *)
  let endings = Bytes.make nblocks '\000' in
  let succ_off = Array.make (nblocks + 1) 0 in
  let succ_adj = Array.make (!targets + nblocks) 0 in
  let added = Array.make nblocks (-1) in
  let arcs = ref 0 in
  let add_arc src dst =
    if added.(dst) <> src then begin
      added.(dst) <- src;
      succ_adj.(!arcs) <- dst;
      incr arcs
    end
  in
  for b = 0 to nblocks - 1 do
    succ_off.(b) <- !arcs;
    let last = first.(b + 1) - 1 in
    let insn = insns.(last) in
    Bytes.set endings b (tag_of insn);
    (match insn with
    | Insn.Br { target } | Insn.Bcond { target; _ } -> add_arc b (target_block target)
    | Insn.Switch { table; _ } -> Array.iter (fun l -> add_arc b (target_block l)) table
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
    | Insn.Jump_unknown _ | Insn.Call _ | Insn.Ret | Insn.Nop ->
        ());
    if Insn.falls_through insn then begin
      (* Validation guarantees the final instruction does not fall
         through, so last + 1 is within the routine here. *)
      assert (last + 1 < len);
      add_arc b (b + 1)
    end
  done;
  let narcs = !arcs in
  succ_off.(nblocks) <- narcs;
  let succ_adj =
    if narcs = Array.length succ_adj then succ_adj else Array.sub succ_adj 0 narcs
  in
  let entry_blocks =
    List.map (fun entry -> (entry, search first (label_index entry))) routine.entries
  in
  { routine; first; endings; succ_off; succ_adj; entry_blocks }

let block_count g = Array.length g.first - 1
let first g b = g.first.(b)
let last g b = g.first.(b + 1) - 1
let ending g b = tags.(Char.code (Bytes.get g.endings b))

let not_a_call name b =
  invalid_arg (Printf.sprintf "Cfg.%s: block %d does not end in a call" name b)

let callee g b =
  match g.routine.Routine.insns.(last g b) with
  | Insn.Call { callee } -> callee
  | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
  | Insn.Br _ | Insn.Bcond _ | Insn.Switch _ | Insn.Jump_unknown _ | Insn.Ret | Insn.Nop ->
      not_a_call "callee" b

let return_block g b =
  match ending g b with
  | Ends_call -> g.succ_adj.(g.succ_off.(b))
  | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> not_a_call "return_block" b

let block_of_insn g i = search g.first i
let succ_count g b = g.succ_off.(b + 1) - g.succ_off.(b)
let succs g b = Array.sub g.succ_adj g.succ_off.(b) (succ_count g b)

let iter_succs f g b =
  for k = g.succ_off.(b) to g.succ_off.(b + 1) - 1 do
    f g.succ_adj.(k)
  done

(* No predecessor lane is kept: a block's predecessors are the sources
   whose successor row names it, found by one scan in source order, so
   ascending.  Successor rows hold no duplicate. *)
let iter_preds f g b =
  for src = 0 to block_count g - 1 do
    for k = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
      if g.succ_adj.(k) = b then f src
    done
  done

let pred_count g b =
  let n = ref 0 in
  iter_preds (fun _ -> incr n) g b;
  !n

let preds g b =
  let row = Array.make (pred_count g b) 0 and i = ref 0 in
  iter_preds
    (fun p ->
      row.(!i) <- p;
      incr i)
    g b;
  row

let pred_rows g ~off ~adj =
  let n = block_count g in
  Array.fill off 0 (n + 1) 0;
  Array.iter (fun dst -> off.(dst + 1) <- off.(dst + 1) + 1) g.succ_adj;
  for b = 1 to n do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  (* Filling in source order keeps each row ascending; [adj]'s slot for
     the next predecessor of [dst] is [off.(dst)], moved back after. *)
  for src = 0 to n - 1 do
    for k = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
      let dst = g.succ_adj.(k) in
      adj.(off.(dst)) <- src;
      off.(dst) <- off.(dst) + 1
    done
  done;
  for b = n downto 1 do
    off.(b) <- off.(b - 1)
  done;
  off.(0) <- 0

let fold_succs f init g b =
  let acc = ref init in
  for k = g.succ_off.(b) to g.succ_off.(b + 1) - 1 do
    acc := f !acc g.succ_adj.(k)
  done;
  !acc

let arc_count g = Array.length g.succ_adj

(* Blocks whose ending byte is [tag], in block order. *)
let blocks_ending g tag =
  let acc = ref [] in
  for b = block_count g - 1 downto 0 do
    if Bytes.get g.endings b = tag then acc := b :: !acc
  done;
  !acc

let call_sites g = List.map (fun b -> (b, callee g b)) (blocks_ending g '\001')
let exit_blocks g = blocks_ending g '\002'
let unknown_jump_blocks g = blocks_ending g '\004'

let branch_instruction_count g =
  Array.fold_left
    (fun n insn ->
      match insn with
      | Insn.Br _ | Insn.Bcond _ | Insn.Switch _ -> n + 1
      | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
      | Insn.Jump_unknown _ | Insn.Call _ | Insn.Ret | Insn.Nop ->
          n)
    0 g.routine.insns

let reverse_postorder g =
  let n = block_count g in
  let state = Array.make n `White in
  let order = Vec.create () in
  let rec visit b =
    if state.(b) = `White then begin
      state.(b) <- `Grey;
      iter_succs visit g b;
      state.(b) <- `Black;
      Vec.push order b
    end
  in
  List.iter (fun (_, b) -> visit b) g.entry_blocks;
  for b = 0 to n - 1 do
    visit b
  done;
  let post = Vec.to_array order in
  let rpo = Array.make n 0 in
  let count = Array.length post in
  Array.iteri (fun i b -> rpo.(count - 1 - i) <- b) post;
  rpo

let pp ppf g =
  Format.fprintf ppf "cfg %s (%d blocks)@." g.routine.Routine.name (block_count g);
  for b = 0 to block_count g - 1 do
    let kind =
      match ending g b with
      | Ends_plain -> ""
      | Ends_call -> " [call]"
      | Ends_ret -> " [ret]"
      | Ends_switch -> " [switch]"
      | Ends_jump_unknown -> " [jmp?]"
    in
    Format.fprintf ppf "  B%d [%d..%d]%s -> %s@." b (first g b) (last g b) kind
      (String.concat "," (Array.to_list (Array.map (Printf.sprintf "B%d") (succs g b))))
  done
