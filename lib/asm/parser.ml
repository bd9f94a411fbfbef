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

let mnemonics =
  let table = Name_key.Table.create 64 in
  let add name m = Name_key.Table.replace table (Name_key.of_string name) m in
  List.iter
    (fun (name, m) -> add name m)
    [ ("li", Li); ("lda", Lda); ("mov", Mov); ("ldq", Ldq); ("stq", Stq); ("br", Br);
      ("jmp", Jmp); ("bsr", Bsr); ("jsr", Jsr); ("ret", Ret); ("nop", Nop);
      ("switch", Switch) ];
  List.iter (fun op -> add (Insn.binop_name op) (Binop op)) Insn.binops;
  List.iter (fun cond -> add (Insn.cond_name cond) (Bcond cond)) Insn.conds;
  table

let mnemonic c =
  match Name_key.Table.find mnemonics (L.key c 0) with
  | m -> m
  | exception Not_found -> Unknown

let reg c i =
  match Reg.of_key (L.key c i) with
  | r -> r
  | exception Not_found -> fail c "unknown register %s" (L.text c i)

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
let directive = L.[| Directive |]
let directive_name = L.[| Directive; Ident |]
let exported_routine = L.[| Directive; Ident; Directive |]
let label_def = L.[| Ident; Colon |]

(* [NAME ("," NAME)* "]"] from token [i] to the end of the line. *)
let names c i ~malformed =
  let n = L.length c in
  let rec go i acc =
    if i + 2 = n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Rbracket then
      List.rev (L.text c i :: acc)
    else if i + 1 < n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Comma then
      go (i + 2) (L.text c i :: acc)
    else fail c "%s" malformed
  in
  go i []

(* One instruction line.  The mnemonic's own forms are tried first; any
   other line of a binop or conditional-branch shape names an unknown
   mnemonic.  Registers are resolved in source order, so the first bad
   one is reported. *)
let instruction c =
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
  | Br when L.shape c one_ident -> Insn.Br { target = L.text c 1 }
  | Jmp when L.shape c jmp_reg -> Insn.Jump_unknown { target = reg c 2 }
  | Bsr when L.shape c reg_ident && L.is c 1 "ra" ->
      Insn.Call { callee = Insn.Direct (L.text c 3) }
  | Jsr when L.shape c jsr_reg && L.is c 1 "ra" ->
      Insn.Call { callee = Insn.Indirect (reg c 4, None) }
  | Jsr when L.starts_with c jsr_list && L.is c 1 "ra" ->
      let r = reg c 4 in
      let targets = names c 8 ~malformed:"malformed jsr target list" in
      Insn.Call { callee = Insn.Indirect (r, Some targets) }
  | Ret when L.shape c bare -> Insn.Ret
  | Nop when L.shape c bare -> Insn.Nop
  | Switch when L.starts_with c switch_list ->
      let index = reg c 1 in
      let table = names c 4 ~malformed:"malformed switch table" in
      Insn.Switch { index; table = Array.of_list table }
  | _ ->
      if L.shape c binop_reg || L.shape c binop_imm then
        match m with
        | Binop op ->
            let src1 = reg c 1 in
            let src2 = if L.kind c 3 = L.Int then Insn.Imm (L.int c 3) else Insn.Reg (reg c 3) in
            Insn.Binop { op; dst = reg c 5; src1; src2 }
        | _ -> fail c "unknown mnemonic %s" (L.text c 0)
      else if L.shape c reg_ident then
        match m with
        | Bcond cond -> Insn.Bcond { cond; src = reg c 1; target = L.text c 3 }
        | _ -> fail c "unknown mnemonic %s" (L.text c 0)
      else fail c "cannot parse %s instruction" (L.text c 0)

type partial_routine = {
  name : string;
  exported : bool;
  mutable entries : string list; (* reversed *)
  mutable labels : (string * int) list; (* reversed *)
  defined : (string, unit) Hashtbl.t; (* the labels, to reject duplicates *)
}

let parse c =
  let main = ref None in
  let routines = ref [] (* reversed *) in
  let current = ref None in
  (* The current routine's instructions; its length is the index the next
     label names. *)
  let insns = Vec.create () in
  let finish p =
    let entries =
      match List.rev p.entries with
      | [] ->
          let l = p.name ^ "$entry" in
          if not (Hashtbl.mem p.defined l) then p.labels <- (l, 0) :: p.labels;
          [ l ]
      | declared -> declared
    in
    let routine =
      Routine.make ~exported:p.exported ~name:p.name ~entries
        ~labels:(List.rev p.labels) (Vec.to_array insns)
    in
    routines := routine :: !routines;
    Vec.clear insns;
    current := None
  in
  let outside () =
    if L.shape c directive_name && L.is c 0 "main" then
      match !main with
      | None -> main := Some (L.text c 1)
      | Some _ -> fail c "duplicate .main directive"
    else if L.starts_with c directive_name && L.is c 0 "routine" then begin
      let exported =
        if L.length c = 2 then false
        else if L.shape c exported_routine && L.is c 2 "exported" then true
        else fail c "malformed .routine directive"
      in
      current :=
        Some
          {
            name = L.text c 1;
            exported;
            entries = [];
            labels = [];
            defined = Hashtbl.create 16;
          }
    end
    else fail c "expected .main or .routine"
  in
  let inside p =
    if L.shape c directive && L.is c 0 "end" then finish p
    else if L.shape c directive_name && L.is c 0 "entry" then
      p.entries <- L.text c 1 :: p.entries
    else if L.shape c label_def then begin
      let label = L.text c 0 in
      if Hashtbl.mem p.defined label then fail c "duplicate label %s" label;
      Hashtbl.add p.defined label ();
      p.labels <- (label, Vec.length insns) :: p.labels
    end
    else Vec.push insns (instruction c)
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
