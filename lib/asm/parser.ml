open Spike_support
open Spike_isa
open Spike_ir
module L = Lexer

exception Error of { line : int; message : string }

let fail c fmt =
  Format.kasprintf (fun message -> raise (Error { line = L.line c; message })) fmt

type mnemonic =
  | Li
  | Lda
  | Mov
  | Ldq
  | Stq
  | Br
  | Jmp
  | Bsr
  | Jsr
  | Ret
  | Nop
  | Switch
  | Binop of Insn.binop
  | Bcond of Insn.cond
  | Unknown

let mnemonic_list =
  [ ("li", Li); ("lda", Lda); ("mov", Mov); ("ldq", Ldq); ("stq", Stq); ("br", Br);
    ("jmp", Jmp); ("bsr", Bsr); ("jsr", Jsr); ("ret", Ret); ("nop", Nop);
    ("switch", Switch) ]
  @ List.map (fun op -> (Insn.binop_name op, Binop op)) Insn.binops
  @ List.map (fun cond -> (Insn.cond_name cond, Bcond cond)) Insn.conds

let mnemonics = Array.of_list (List.map snd mnemonic_list)
let mnemonic_index = Name_key.table (List.mapi (fun i (name, _) -> (name, i)) mnemonic_list)

let mnemonic c =
  match Name_key.find mnemonic_index (L.key c 0) with -1 -> Unknown | i -> mnemonics.(i)

let reg c i =
  match Reg.of_key (L.key c i) with
  | -1 -> fail c "unknown register %s" (L.text c i)
  | r -> r

(* Operands are immutable, so one value per register and per small
   immediate serves every instruction that names it. *)
let reg_operands = Array.init Reg.count (fun r -> Insn.Reg r)
let small_immediates = Array.init 256 (fun i -> Insn.Imm i)
let imm_operand i = if i >= 0 && i < 256 then small_immediates.(i) else Insn.Imm i

let key_ra = Name_key.of_string "ra"
let key_main = Name_key.of_string "main"
let key_routine = Name_key.of_string "routine"
let key_entry = Name_key.of_string "entry"
let key_end = Name_key.of_string "end"

(* The current routine's labels, interned by source span: each distinct
   label gets one string, shared by its definition, its [.entry]
   directives and every branch to it.  A label of at most 7 bytes is found
   by its name key; a longer one by a hash of its bytes and a byte
   comparison.  The open-addressed slots hold (stamp, id) pairs, ids
   indexing [labels], and a slot counts only when its stamp is the
   current routine's, so starting a routine clears nothing. *)
module Labels = struct
  type label = {
    name : string;
    key : int;  (** name key, or -1 for a long label *)
    mutable at : int;  (** index of the definition, or -1 *)
  }

  type t = {
    mutable stamp : int;
    mutable slots : int array;  (** [2s]: stamp, [2s + 1]: id *)
    labels : label Vec.t;  (** by id, in order of first appearance *)
    defined : label Vec.t;  (** in definition order *)
    entries : label Vec.t;  (** [.entry] directives, in source order *)
  }

  let create () =
    {
      stamp = 0;
      slots = Array.make 256 (-1);
      labels = Vec.create ();
      defined = Vec.create ();
      entries = Vec.create ();
    }

  let start_routine t =
    t.stamp <- t.stamp + 1;
    Vec.clear t.labels;
    Vec.clear t.defined;
    Vec.clear t.entries

  let rec bytes_hash src i stop h =
    if i = stop then h
    else bytes_hash src (i + 1) stop ((31 * h) + Char.code (String.unsafe_get src i))

  let home t key src pos stop =
    let h = if key >= 0 then key else bytes_hash src pos stop 0 in
    ((h * 0x9E3779B97F4A7C1) lsr 20) land (Array.length t.slots - 2)

  let rec same_bytes name src pos k len =
    k = len
    || (String.unsafe_get name k = String.unsafe_get src (pos + k)
       && same_bytes name src pos (k + 1) len)

  let matches l key src pos stop =
    if key >= 0 then l.key = key
    else
      l.key < 0
      && String.length l.name = stop - pos
      && same_bytes l.name src pos 0 (stop - pos)

  (* The slot holding the label spelled [src.[pos .. stop - 1]], or the
     empty slot where it goes. *)
  let rec find t key src pos stop s =
    if t.slots.(s) <> t.stamp || matches (Vec.get t.labels t.slots.(s + 1)) key src pos stop
    then s
    else find t key src pos stop ((s + 2) land (Array.length t.slots - 2))

  let place t s id =
    t.slots.(s) <- t.stamp;
    t.slots.(s + 1) <- id

  let rehash t =
    t.slots <- Array.make (2 * Array.length t.slots) (-1);
    Vec.iteri
      (fun id l ->
        let len = String.length l.name in
        place t (find t l.key l.name 0 len (home t l.key l.name 0 len)) id)
      t.labels

  (* [key] is the span's name key, as the lexer computes it. *)
  let intern t src pos stop key =
    let s = find t key src pos stop (home t key src pos stop) in
    if t.slots.(s) = t.stamp then Vec.get t.labels t.slots.(s + 1)
    else begin
      let name =
        if pos = 0 && stop = String.length src then src else String.sub src pos (stop - pos)
      in
      let l = { name; key; at = -1 } in
      place t s (Vec.length t.labels);
      Vec.push t.labels l;
      if 4 * Vec.length t.labels > Array.length t.slots then rehash t;
      l
    end

  let define t l index =
    l.at <- index;
    Vec.push t.defined l

  (* [Routine.labels] and [Routine.entries], each built back to front. *)
  let rec build v k f acc = if k < 0 then acc else build v (k - 1) f (f (Vec.get v k) :: acc)
  let bindings t = build t.defined (Vec.length t.defined - 1) (fun l -> (l.name, l.at)) []
  let entries t = build t.entries (Vec.length t.entries - 1) (fun l -> l.name) []
end

let intern c labels i = Labels.intern labels (L.source c) (L.start c i) (L.stop c i) (L.key c i)
let label c labels i = (intern c labels i).Labels.name

(* Routine names live in one program-wide table of the same kind, never
   restarted: a [.routine] name and every [bsr]/[jsr] callee spelled like
   it share one string, whichever comes first in the source. *)
type tables = { labels : Labels.t; routine_names : Labels.t }

let routine_name c t i = label c t.routine_names i

(* Line shapes, as token kinds.  Array literals allocate, so they are
   built once here. *)
let reg_imm = L.[| Ident; Ident; Comma; Int |]
let reg_mem = L.[| Ident; Ident; Comma; Int; Lparen; Ident; Rparen |]
let reg_ident = L.[| Ident; Ident; Comma; Ident |]
let one_ident = L.[| Ident; Ident |]
let bare = L.[| Ident |]
let jmp_reg = L.[| Ident; Lparen; Ident; Rparen |]
let jsr_reg = L.[| Ident; Ident; Comma; Lparen; Ident; Rparen |]
let jsr_list = L.[| Ident; Ident; Comma; Lparen; Ident; Rparen; Comma; Lbracket |]
let switch_list = L.[| Ident; Ident; Comma; Lbracket |]
let binop_reg = L.[| Ident; Ident; Comma; Ident; Comma; Ident |]
let binop_imm = L.[| Ident; Ident; Comma; Int; Comma; Ident |]
let directive_name = L.[| Directive; Ident |]
let exported_routine = L.[| Directive; Ident; Directive |]

(* [NAME ("," NAME)* "]"] from token [i] to the end of the line. *)
let rec well_formed c i n =
  if i + 2 = n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Rbracket then true
  else i + 1 < n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Comma && well_formed c (i + 2) n

(* The names of such a list, read by [name] from the last one back. *)
let names c i ~malformed name =
  if not (well_formed c i (L.length c)) then fail c "%s" malformed;
  let rec go k acc = if k < i then acc else go (k - 2) (name k :: acc) in
  go (L.length c - 2) []

(* One instruction line.  The mnemonic's own forms are tried first; any
   other line of a binop or conditional-branch shape names an unknown
   mnemonic.  Registers are resolved in source order, so the first bad
   one is reported. *)
let instruction c t =
  if L.kind c 0 <> L.Ident then fail c "expected an instruction";
  let m = mnemonic c in
  match m with
  | Li when L.shape c reg_imm -> Insn.Li { dst = reg c 1; imm = L.int c 3 }
  | Lda when L.shape c reg_mem ->
      let dst = reg c 1 in
      Insn.Lda { dst; base = reg c 5; offset = L.int c 3 }
  | Ldq when L.shape c reg_mem ->
      let dst = reg c 1 in
      Insn.Load { dst; base = reg c 5; offset = L.int c 3 }
  | Stq when L.shape c reg_mem ->
      let src = reg c 1 in
      Insn.Store { src; base = reg c 5; offset = L.int c 3 }
  | Mov when L.shape c reg_ident ->
      let src = reg c 1 in
      Insn.Mov { dst = reg c 3; src }
  | Br when L.shape c one_ident -> Insn.Br { target = label c t.labels 1 }
  | Jmp when L.shape c jmp_reg -> Insn.Jump_unknown { target = reg c 2 }
  | Bsr when L.shape c reg_ident && L.key c 1 = key_ra ->
      Insn.Call { callee = Insn.Direct (routine_name c t 3) }
  | Jsr when L.shape c jsr_reg && L.key c 1 = key_ra ->
      Insn.Call { callee = Insn.Indirect (reg c 4, None) }
  | Jsr when L.starts_with c jsr_list && L.key c 1 = key_ra ->
      let r = reg c 4 in
      let targets = names c 8 ~malformed:"malformed jsr target list" (routine_name c t) in
      Insn.Call { callee = Insn.Indirect (r, Some targets) }
  | Ret when L.shape c bare -> Insn.Ret
  | Nop when L.shape c bare -> Insn.Nop
  | Switch when L.starts_with c switch_list ->
      let index = reg c 1 in
      let table = names c 4 ~malformed:"malformed switch table" (label c t.labels) in
      Insn.Switch { index; table = Array.of_list table }
  | _ ->
      if L.shape c binop_reg || L.shape c binop_imm then
        match m with
        | Binop op ->
            let src1 = reg c 1 in
            let src2 =
              if L.kind c 3 = L.Int then imm_operand (L.int c 3) else reg_operands.(reg c 3)
            in
            Insn.Binop { op; dst = reg c 5; src1; src2 }
        | _ -> fail c "unknown mnemonic %s" (L.text c 0)
      else if L.shape c reg_ident then
        match m with
        | Bcond cond ->
            let src = reg c 1 in
            Insn.Bcond { cond; src; target = label c t.labels 3 }
        | _ -> fail c "unknown mnemonic %s" (L.text c 0)
      else fail c "cannot parse %s instruction" (L.text c 0)

type partial_routine = { name : string; exported : bool }

let parse c =
  let main = ref None in
  let routines = ref [] (* reversed *) in
  let current = ref None in
  let labels = Labels.create () in
  let t = { labels; routine_names = Labels.create () } in
  (* The current routine's instructions; its length is the index the next
     label names. *)
  let insns = Vec.create () in
  let finish p =
    let entries =
      if not (Vec.is_empty labels.Labels.entries) then Labels.entries labels
      else
        let name = p.name ^ "$entry" in
        let l = Labels.intern labels name 0 (String.length name) (Name_key.of_string name) in
        if l.at < 0 then Labels.define labels l 0;
        [ l.name ]
    in
    let routine =
      Routine.make ~exported:p.exported ~name:p.name ~entries
        ~labels:(Labels.bindings labels) (Vec.to_array insns)
    in
    routines := routine :: !routines;
    Vec.clear insns;
    current := None
  in
  let outside () =
    if L.shape c directive_name && L.key c 0 = key_main then
      match !main with
      | None -> main := Some (L.text c 1)
      | Some _ -> fail c "duplicate .main directive"
    else if L.starts_with c directive_name && L.key c 0 = key_routine then begin
      let exported =
        if L.length c = 2 then false
        else if L.shape c exported_routine && L.is c 2 "exported" then true
        else fail c "malformed .routine directive"
      in
      Labels.start_routine labels;
      current := Some { name = routine_name c t 1; exported }
    end
    else fail c "expected .main or .routine"
  in
  let inside p =
    match L.kind c 0 with
    | L.Directive when L.length c = 1 && L.key c 0 = key_end -> finish p
    | L.Directive when L.shape c directive_name && L.key c 0 = key_entry ->
        Vec.push labels.Labels.entries (intern c labels 1)
    | L.Ident when L.length c = 2 && L.kind c 1 = L.Colon ->
        let l = intern c labels 0 in
        if l.at >= 0 then fail c "duplicate label %s" l.name;
        Labels.define labels l (Vec.length insns)
    | _ -> Vec.push insns (instruction c t)
  in
  while L.next_line c do
    match !current with None -> outside () | Some p -> inside p
  done;
  (match !current with
  | Some p -> raise (Error { line = 0; message = Printf.sprintf "routine %s not closed with .end" p.name })
  | None -> ());
  match !main with
  | None -> raise (Error { line = 0; message = "missing .main directive" })
  | Some main -> (
      match Program.make ~main (List.rev !routines) with
      | program -> program
      | exception Invalid_argument message -> raise (Error { line = 0; message }))

let program_of_string source =
  let c = L.create source in
  match parse c with
  | program -> program
  | exception L.Error { line; message } -> raise (Error { line; message })

let program_of_file path =
  let ic = open_in_bin path in
  let source =
    match really_input_string ic (in_channel_length ic) with
    | s ->
        close_in ic;
        s
    | exception e ->
        close_in_noerr ic;
        raise e
  in
  program_of_string source
