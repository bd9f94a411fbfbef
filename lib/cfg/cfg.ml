open Spike_support
open Spike_isa
open Spike_ir

type ending = Ends_plain | Ends_call | Ends_ret | Ends_switch | Ends_jump_unknown
type t = { routine : Routine.t; lanes : Bytes.t; nblocks : int; narcs : int }

(* Every read and write is bounds-checked against the whole buffer;
   the accessors below also check the block, slot or entry against its
   own lane, so an index past one lane never reads the next. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let word lanes w = Int32.to_int (get32 lanes (4 * w))
let set_word lanes w v = set32 lanes (4 * w) (Int32.of_int v)

(* Word offsets of the lanes after the block starts (at word 0); the
   ending bytes are the buffer's last [nblocks] bytes. *)
let off_base n = n + 1
let adj_base n = 2 * (n + 1)
let entry_base n narcs = adj_base n + narcs
let endings_base g = Bytes.length g.lanes - g.nblocks

let out_of_range name what i =
  invalid_arg (Printf.sprintf "Cfg.%s: %s %d out of range" name what i)

let check_block name g b = if b < 0 || b >= g.nblocks then out_of_range name "block" b

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

(* The last block whose first instruction is at or before [i], by
   binary search over the block starts. *)
let search lanes nblocks i =
  let lo = ref 0 and hi = ref (nblocks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if word lanes mid <= i then lo := mid else hi := mid - 1
  done;
  !lo

(* Arcs named by a block's final instruction, duplicates included. *)
let named_arcs insn =
  let targets =
    match insn with
    | Insn.Br _ | Insn.Bcond _ -> 1
    | Insn.Switch { table; _ } -> Array.length table
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
    | Insn.Jump_unknown _ | Insn.Call _ | Insn.Ret | Insn.Nop ->
        0
  in
  if Insn.falls_through insn then targets + 1 else targets

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
     absorbs marks past the end. *)
  let leader = Bytes.make (len + 1) '\000' in
  let mark i = Bytes.set leader i '\001' in
  mark 0;
  List.iter (fun entry -> mark (label_index entry)) routine.entries;
  for i = 0 to len - 1 do
    match insns.(i) with
    | Insn.Br { target } | Insn.Bcond { target; _ } ->
        mark (label_index target);
        mark (i + 1)
    | Insn.Switch { table; _ } ->
        Array.iter (fun l -> mark (label_index l)) table;
        mark (i + 1)
    | Insn.Jump_unknown _ | Insn.Call _ | Insn.Ret -> mark (i + 1)
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
    | Insn.Nop ->
        ()
  done;
  (* Blocks, and the arcs their final instructions name: the buffer is
     sized for those, and cut down only if some are duplicates. *)
  let nblocks = ref 0 and named = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get leader i <> '\000' then incr nblocks;
    if i = len - 1 || Bytes.get leader (i + 1) <> '\000' then
      named := !named + named_arcs insns.(i)
  done;
  let nblocks = !nblocks in
  let nentries = List.length routine.entries in
  let size narcs = (4 * (entry_base nblocks narcs + nentries)) + nblocks in
  let lanes = Bytes.create (size !named) in
  let b = ref 0 in
  for i = 0 to len - 1 do
    if Bytes.get leader i <> '\000' then begin
      set_word lanes !b i;
      incr b
    end
  done;
  set_word lanes nblocks len;
  let target_block l =
    let i = label_index l in
    assert (i < len);
    search lanes nblocks i
  in
  (* Successors from each block's final instruction, in one pass: a
     block's arcs are added together, so [added.(dst) = src] marks a
     duplicate arc.  The fallthrough of block [b] is block [b + 1]. *)
  let added = Array.make nblocks (-1) in
  let arcs = ref 0 in
  let add_arc src dst =
    if added.(dst) <> src then begin
      added.(dst) <- src;
      set_word lanes (adj_base nblocks + !arcs) dst;
      incr arcs
    end
  in
  for b = 0 to nblocks - 1 do
    set_word lanes (off_base nblocks + b) !arcs;
    let last = word lanes (b + 1) - 1 in
    let insn = insns.(last) in
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
  set_word lanes (off_base nblocks + nblocks) narcs;
  let lanes = if narcs = !named then lanes else Bytes.sub lanes 0 (size narcs) in
  let entry_at = entry_base nblocks narcs in
  List.iteri
    (fun i entry -> set_word lanes (entry_at + i) (search lanes nblocks (label_index entry)))
    routine.entries;
  let endings = 4 * (entry_at + nentries) in
  for b = 0 to nblocks - 1 do
    Bytes.set lanes (endings + b) (tag_of insns.(word lanes (b + 1) - 1))
  done;
  { routine; lanes; nblocks; narcs }

let block_count g = g.nblocks
let arc_count g = g.narcs

let first g b =
  check_block "first" g b;
  word g.lanes b

let last g b =
  check_block "last" g b;
  word g.lanes (b + 1) - 1

let ending g b =
  check_block "ending" g b;
  tags.(Char.code (Bytes.get g.lanes (endings_base g + b)))

let entry_count g = ((Bytes.length g.lanes - g.nblocks) / 4) - entry_base g.nblocks g.narcs

let entry_block g i =
  if i < 0 || i >= entry_count g then out_of_range "entry_block" "entry" i;
  word g.lanes (entry_base g.nblocks g.narcs + i)

let succ_start g b =
  check_block "succ_start" g b;
  word g.lanes (off_base g.nblocks + b)

let succ_stop g b =
  check_block "succ_stop" g b;
  word g.lanes (off_base g.nblocks + b + 1)

let succ_at g k =
  if k < 0 || k >= g.narcs then out_of_range "succ_at" "arc slot" k;
  word g.lanes (adj_base g.nblocks + k)

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
  | Ends_call -> succ_at g (succ_start g b)
  | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> not_a_call "return_block" b

let block_of_insn g i = search g.lanes g.nblocks i
let succ_count g b = succ_stop g b - succ_start g b

let succs g b =
  let start = succ_start g b in
  Array.init (succ_stop g b - start) (fun k -> succ_at g (start + k))

let iter_succs f g b =
  for k = succ_start g b to succ_stop g b - 1 do
    f (succ_at g k)
  done

let fold_succs f init g b =
  let acc = ref init in
  for k = succ_start g b to succ_stop g b - 1 do
    acc := f !acc (succ_at g k)
  done;
  !acc

(* No predecessor lane is kept: a block's predecessors are the sources
   whose successor row names it, found by one scan in source order, so
   ascending.  Successor rows hold no duplicate. *)
let iter_preds f g b =
  check_block "iter_preds" g b;
  for src = 0 to g.nblocks - 1 do
    for k = succ_start g src to succ_stop g src - 1 do
      if succ_at g k = b then f src
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
  let n = g.nblocks in
  Array.fill off 0 (n + 1) 0;
  for k = 0 to g.narcs - 1 do
    let dst = succ_at g k in
    off.(dst + 1) <- off.(dst + 1) + 1
  done;
  for b = 1 to n do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  (* Filling in source order keeps each row ascending; [adj]'s slot for
     the next predecessor of [dst] is [off.(dst)], moved back after. *)
  for src = 0 to n - 1 do
    for k = succ_start g src to succ_stop g src - 1 do
      let dst = succ_at g k in
      adj.(off.(dst)) <- src;
      off.(dst) <- off.(dst) + 1
    done
  done;
  for b = n downto 1 do
    off.(b) <- off.(b - 1)
  done;
  off.(0) <- 0

(* Blocks whose ending byte is [tag], in block order. *)
let blocks_ending g tag =
  let base = endings_base g in
  let acc = ref [] in
  for b = g.nblocks - 1 downto 0 do
    if Bytes.get g.lanes (base + b) = tag then acc := b :: !acc
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
  let n = g.nblocks in
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
  for i = 0 to entry_count g - 1 do
    visit (entry_block g i)
  done;
  for b = 0 to n - 1 do
    visit b
  done;
  let post = Vec.to_array order in
  let rpo = Array.make n 0 in
  let count = Array.length post in
  Array.iteri (fun i b -> rpo.(count - 1 - i) <- b) post;
  rpo

let pp ppf g =
  Format.fprintf ppf "cfg %s (%d blocks)@." g.routine.Routine.name g.nblocks;
  for b = 0 to g.nblocks - 1 do
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
