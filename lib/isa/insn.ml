open Spike_support

type label = string

type binop = Add | Sub | Mul | And | Or | Xor | Sll | Srl | Cmpeq | Cmplt | Cmple
type cond = Eq | Ne | Lt | Le | Gt | Ge
type operand = Reg of Reg.t | Imm of int
type callee = Direct of string | Indirect of Reg.t * string list option

type t =
  | Li of { dst : Reg.t; imm : int }
  | Lda of { dst : Reg.t; base : Reg.t; offset : int }
  | Mov of { dst : Reg.t; src : Reg.t }
  | Binop of { op : binop; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Br of { target : label }
  | Bcond of { cond : cond; src : Reg.t; target : label }
  | Switch of { index : Reg.t; table : label array }
  | Jump_unknown of { target : Reg.t }
  | Call of { callee : callee }
  | Ret
  | Nop

(* Writes to the zero registers are architectural no-ops and reads of them
   never carry dataflow, so both are filtered here once and for all. *)
let def_of r = if Reg.is_zero r then Regset.empty else Regset.singleton r
let use_of r = if Reg.is_zero r then Regset.empty else Regset.singleton r
let use2 a b = Regset.union (use_of a) (use_of b)

let defs = function
  | Li { dst; _ } | Lda { dst; _ } | Mov { dst; _ } | Binop { dst; _ } | Load { dst; _ } ->
      def_of dst
  | Store _ | Br _ | Bcond _ | Switch _ | Jump_unknown _ | Ret | Nop -> Regset.empty
  | Call _ -> def_of Reg.ra

let uses = function
  | Li _ | Br _ | Nop -> Regset.empty
  | Lda { base; _ } | Load { base; _ } -> use_of base
  | Mov { src; _ } -> use_of src
  | Binop { src1; src2; _ } -> (
      match src2 with Reg r -> use2 src1 r | Imm _ -> use_of src1)
  | Store { src; base; _ } -> use2 src base
  | Bcond { src; _ } -> use_of src
  | Switch { index; _ } -> use_of index
  | Jump_unknown { target } -> use_of target
  | Call { callee } -> (
      match callee with Direct _ -> Regset.empty | Indirect (r, _) -> use_of r)
  | Ret -> use_of Reg.ra

let is_call = function
  | Call _ -> true
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Br _ | Bcond _ | Switch _
  | Jump_unknown _ | Ret | Nop ->
      false

let call_callee = function
  | Call { callee } -> Some callee
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Br _ | Bcond _ | Switch _
  | Jump_unknown _ | Ret | Nop ->
      None

let ends_block = function
  | Br _ | Bcond _ | Switch _ | Jump_unknown _ | Call _ | Ret -> true
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Nop -> false

let branch_targets = function
  | Br { target } -> [ target ]
  | Bcond { target; _ } -> [ target ]
  | Switch { table; _ } -> Array.to_list table
  | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Jump_unknown _ | Call _ | Ret
  | Nop ->
      []

let falls_through = function
  | Br _ | Switch _ | Jump_unknown _ | Ret -> false
  | Bcond _ | Call _ | Li _ | Lda _ | Mov _ | Binop _ | Load _ | Store _ | Nop -> true

let binop_table =
  [ (Add, "addq"); (Sub, "subq"); (Mul, "mulq"); (And, "and"); (Or, "or");
    (Xor, "xor"); (Sll, "sll"); (Srl, "srl"); (Cmpeq, "cmpeq"); (Cmplt, "cmplt");
    (Cmple, "cmple") ]

let binops = List.map fst binop_table
let binop_name op = List.assoc op binop_table
let binop_of_name s =
  List.find_map (fun (op, name) -> if String.equal name s then Some op else None) binop_table

let cond_table = [ (Eq, "beq"); (Ne, "bne"); (Lt, "blt"); (Le, "ble"); (Gt, "bgt"); (Ge, "bge") ]
let conds = List.map fst cond_table
let cond_name c = List.assoc c cond_table
let cond_of_name s =
  List.find_map (fun (c, name) -> if String.equal name s then Some c else None) cond_table

(* Decimal digits straight into the buffer, without [string_of_int]'s
   intermediate string.  [n >= 0]. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* A negative [n] prints its last digit separately, so that [min_int],
   whose negation overflows, needs no special case. *)
let add_int b n =
  if n >= 0 then add_digits b n
  else begin
    Buffer.add_char b '-';
    let q = n / 10 in
    if q <> 0 then add_digits b (-q);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  end

(* Writers take the buffer as an argument: a local closure over [b] would
   be allocated on every instruction. *)
let add_reg b r = Buffer.add_string b (Reg.name r)

let add_sep b i = if i > 0 then Buffer.add_string b ", "

(* [MNEMONIC REG, OFFSET(BASE)] *)
let add_mem b mnemonic r offset base =
  Buffer.add_string b mnemonic;
  add_reg b r;
  Buffer.add_string b ", ";
  add_int b offset;
  Buffer.add_char b '(';
  add_reg b base;
  Buffer.add_char b ')'

let to_buffer b insn =
  match insn with
  | Li { dst; imm } ->
      Buffer.add_string b "li ";
      add_reg b dst;
      Buffer.add_string b ", ";
      add_int b imm
  | Lda { dst; base; offset } -> add_mem b "lda " dst offset base
  | Mov { dst; src } ->
      Buffer.add_string b "mov ";
      add_reg b src;
      Buffer.add_string b ", ";
      add_reg b dst
  | Binop { op; dst; src1; src2 } ->
      Buffer.add_string b (binop_name op);
      Buffer.add_string b " ";
      add_reg b src1;
      Buffer.add_string b ", ";
      (match src2 with Reg r -> add_reg b r | Imm i -> add_int b i);
      Buffer.add_string b ", ";
      add_reg b dst
  | Load { dst; base; offset } -> add_mem b "ldq " dst offset base
  | Store { src; base; offset } -> add_mem b "stq " src offset base
  | Br { target } ->
      Buffer.add_string b "br ";
      Buffer.add_string b target
  | Bcond { cond; src; target } ->
      Buffer.add_string b (cond_name cond);
      Buffer.add_string b " ";
      add_reg b src;
      Buffer.add_string b ", ";
      Buffer.add_string b target
  | Switch { index; table } ->
      Buffer.add_string b "switch ";
      add_reg b index;
      Buffer.add_string b ", [";
      Array.iteri
        (fun i l ->
          add_sep b i;
          Buffer.add_string b l)
        table;
      Buffer.add_string b "]"
  | Jump_unknown { target } ->
      Buffer.add_string b "jmp (";
      add_reg b target;
      Buffer.add_string b ")"
  | Call { callee } -> (
      match callee with
      | Direct name ->
          Buffer.add_string b "bsr ra, ";
          Buffer.add_string b name
      | Indirect (r, None) ->
          Buffer.add_string b "jsr ra, (";
          add_reg b r;
          Buffer.add_string b ")"
      | Indirect (r, Some targets) ->
          Buffer.add_string b "jsr ra, (";
          add_reg b r;
          Buffer.add_string b "), [";
          List.iteri
            (fun i name ->
              add_sep b i;
              Buffer.add_string b name)
            targets;
          Buffer.add_string b "]")
  | Ret -> Buffer.add_string b "ret"
  | Nop -> Buffer.add_string b "nop"

let to_string insn =
  let b = Buffer.create 32 in
  to_buffer b insn;
  Buffer.contents b

let pp ppf insn = Format.pp_print_string ppf (to_string insn)
