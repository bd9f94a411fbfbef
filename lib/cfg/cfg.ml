open Spike_support
open Spike_isa
open Spike_ir

type ending =
  | Ends_plain
  | Ends_call of Insn.callee
  | Ends_ret
  | Ends_switch
  | Ends_jump_unknown

type block = {
  id : int;
  first : int;
  last : int;
  succs : int array;
  preds : int array;
  ending : ending;
}

type t = {
  routine : Routine.t;
  blocks : block array;
  block_of_insn : int array;
  entry_blocks : (string * int) list;
}

let ending_of insn =
  match insn with
  | Insn.Call { callee } -> Ends_call callee
  | Insn.Ret -> Ends_ret
  | Insn.Switch _ -> Ends_switch
  | Insn.Jump_unknown _ -> Ends_jump_unknown
  | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
  | Insn.Br _ | Insn.Bcond _ | Insn.Nop ->
      Ends_plain

let build (routine : Routine.t) =
  let insns = routine.insns in
  let len = Array.length insns in
  assert (len > 0);
  (* Leaders: first instruction, every labelled branch target / entry, and
     every instruction following a block-ending instruction. *)
  (* Label positions, first binding first (as Routine.label_index); the
     routine is validated, so every entry and target is defined. *)
  let positions = Hashtbl.create 16 in
  List.iter
    (fun (l, i) -> if not (Hashtbl.mem positions l) then Hashtbl.add positions l i)
    routine.labels;
  let label_index l = Hashtbl.find positions l in
  let leader = Array.make len false in
  leader.(0) <- true;
  let mark i = if i < len then leader.(i) <- true in
  List.iter (fun entry -> mark (label_index entry)) routine.entries;
  Array.iteri
    (fun i insn ->
      List.iter (fun l -> mark (label_index l)) (Insn.branch_targets insn);
      if Insn.ends_block insn then mark (i + 1))
    insns;
  (* Partition into blocks. *)
  let starts = ref [] in
  for i = len - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nblocks = Array.length starts in
  let block_of_insn = Array.make len 0 in
  let ranges =
    Array.mapi
      (fun b first ->
        let last = if b + 1 < nblocks then starts.(b + 1) - 1 else len - 1 in
        for i = first to last do
          block_of_insn.(i) <- b
        done;
        (first, last))
      starts
  in
  let block_at insn_index = block_of_insn.(insn_index) in
  let target_block l =
    let i = label_index l in
    assert (i < len);
    block_at i
  in
  (* Successors from each block's final instruction.  A block's arcs are
     added together, so [added.(dst) = src] marks a duplicate arc. *)
  let succs = Array.make nblocks [] and preds = Array.make nblocks [] in
  let added = Array.make nblocks (-1) in
  let add_arc src dst =
    if added.(dst) <> src then begin
      added.(dst) <- src;
      succs.(src) <- dst :: succs.(src);
      preds.(dst) <- src :: preds.(dst)
    end
  in
  Array.iteri
    (fun b (_, last) ->
      let insn = insns.(last) in
      List.iter (fun l -> add_arc b (target_block l)) (Insn.branch_targets insn);
      if Insn.falls_through insn then begin
        (* Validation guarantees the final instruction does not fall
           through, so last + 1 is within the routine here. *)
        assert (last + 1 < len);
        add_arc b (block_at (last + 1))
      end)
    ranges;
  let blocks =
    Array.mapi
      (fun b (first, last) ->
        {
          id = b;
          first;
          last;
          succs = Array.of_list (List.rev succs.(b));
          preds = Array.of_list (List.rev preds.(b));
          ending = ending_of insns.(last);
        })
      ranges
  in
  let entry_blocks =
    List.map (fun entry -> (entry, block_at (label_index entry))) routine.entries
  in
  { routine; blocks; block_of_insn; entry_blocks }

let block_count g = Array.length g.blocks
let arc_count g = Array.fold_left (fun n b -> n + Array.length b.succs) 0 g.blocks

let call_sites g =
  Array.fold_left
    (fun acc b ->
      match b.ending with
      | Ends_call callee -> (b.id, callee) :: acc
      | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> acc)
    [] g.blocks
  |> List.rev

let exit_blocks g =
  Array.fold_left
    (fun acc b ->
      match b.ending with
      | Ends_ret -> b.id :: acc
      | Ends_plain | Ends_call _ | Ends_switch | Ends_jump_unknown -> acc)
    [] g.blocks
  |> List.rev

let unknown_jump_blocks g =
  Array.fold_left
    (fun acc b ->
      match b.ending with
      | Ends_jump_unknown -> b.id :: acc
      | Ends_plain | Ends_call _ | Ends_switch | Ends_ret -> acc)
    [] g.blocks
  |> List.rev

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
  let n = Array.length g.blocks in
  let state = Array.make n `White in
  let order = Vec.create () in
  let rec visit b =
    if state.(b) = `White then begin
      state.(b) <- `Grey;
      Array.iter visit g.blocks.(b).succs;
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
  Array.iter
    (fun b ->
      let kind =
        match b.ending with
        | Ends_plain -> ""
        | Ends_call _ -> " [call]"
        | Ends_ret -> " [ret]"
        | Ends_switch -> " [switch]"
        | Ends_jump_unknown -> " [jmp?]"
      in
      Format.fprintf ppf "  B%d [%d..%d]%s -> %s@." b.id b.first b.last kind
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "B%d") b.succs))))
    g.blocks
