open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

let format_version = 5

let config_key ~branch_nodes ~callee_saved_filter =
  let b = Buffer.create 32 in
  Codec.write_string b "spike-store";
  Codec.write_int b format_version;
  Codec.write_bool b branch_nodes;
  Codec.write_bool b callee_saved_filter;
  Codec.write_int b Regset.bits;
  Digest.string (Buffer.contents b)

(* --- Structural fingerprint ---------------------------------------------

   A hand-rolled rendering: digesting the pretty-printer's output — or
   even a byte serialization — would dominate warm-start time on
   300k-instruction programs.  Instead every field is folded directly
   into two independent 63-bit polynomial hash lanes (distinct odd
   bases), 126 bits total, emitted as two little-endian words.  Every
   constructor gets a distinct tag and every field is folded, so
   distinct routines fingerprint distinctly up to hash collision, which
   at ~2^-126 per pair is negligible against the store's non-adversarial
   threat model (stale-build detection, not tamper-proofing). *)

let base1 = 0x100000001b3 (* FNV-64 prime *)
let base2 = 0x1E3779B97F4A7C15 (* odd golden-ratio mix, truncated to 61 bits *)

type lanes = { mutable h1 : int; mutable h2 : int }

let scratch = { h1 = 0; h2 = 0 }

let fold l v =
  l.h1 <- (l.h1 * base1) + v;
  l.h2 <- (l.h2 * base2) + v

(* Strings are pre-hashed eight bytes at a time into one word, then that
   word (and the length, so "ab","c" differs from "a","bc") is folded. *)
let fold_string l s =
  let n = String.length s in
  let h = ref 0x4bf29ce484222325 in
  let words = n / 8 in
  for k = 0 to words - 1 do
    h := (!h lxor Int64.to_int (String.get_int64_le s (k * 8))) * base1
  done;
  for i = words * 8 to n - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * base1
  done;
  fold l n;
  fold l !h

let fold_bool l b = fold l (if b then 1 else 0)

let fold_regset l s = fold l (Regset.to_int s)

let add_operand b = function
  | Insn.Reg r ->
      fold b 0;
      fold b r
  | Insn.Imm i ->
      fold b 1;
      fold b i

let binop_tag : Insn.binop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | And -> 3
  | Or -> 4
  | Xor -> 5
  | Sll -> 6
  | Srl -> 7
  | Cmpeq -> 8
  | Cmplt -> 9
  | Cmple -> 10

let cond_tag : Insn.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

(* One possible call target's resolution status.  'I' carries no index on
   purpose: reuse must survive routine reordering. *)
let add_status ~externals program b name =
  match Program.find_index program name with
  | Some _ -> fold b (Char.code 'I')
  | None -> (
      match externals name with
      | Some (c : Psg.external_class) ->
          fold b (Char.code 'X');
          fold_regset b c.x_used;
          fold_regset b c.x_defined;
          fold_regset b c.x_killed
      | None -> fold b (Char.code 'U'))

let add_callee ~externals program b = function
  | Insn.Direct name ->
      fold b 0;
      fold_string b name;
      add_status ~externals program b name
  | Insn.Indirect (r, None) ->
      fold b 1;
      fold b r
  | Insn.Indirect (r, Some names) ->
      fold b 2;
      fold b r;
      fold b (List.length names);
      List.iter
        (fun name ->
          fold_string b name;
          add_status ~externals program b name)
        names

let add_insn ~externals program b (insn : Insn.t) =
  match insn with
  | Li { dst; imm } ->
      fold b 0;
      fold b dst;
      fold b imm
  | Lda { dst; base; offset } ->
      fold b 1;
      fold b dst;
      fold b base;
      fold b offset
  | Mov { dst; src } ->
      fold b 2;
      fold b dst;
      fold b src
  | Binop { op; dst; src1; src2 } ->
      fold b 3;
      fold b (binop_tag op);
      fold b dst;
      fold b src1;
      add_operand b src2
  | Load { dst; base; offset } ->
      fold b 4;
      fold b dst;
      fold b base;
      fold b offset
  | Store { src; base; offset } ->
      fold b 5;
      fold b src;
      fold b base;
      fold b offset
  | Br { target } ->
      fold b 6;
      fold_string b target
  | Bcond { cond; src; target } ->
      fold b 7;
      fold b (cond_tag cond);
      fold b src;
      fold_string b target
  | Switch { index; table } ->
      fold b 8;
      fold b index;
      fold b (Array.length table);
      Array.iter (fold_string b) table
  | Jump_unknown { target } ->
      fold b 9;
      fold b target
  | Call { callee } ->
      fold b 10;
      add_callee ~externals program b callee
  | Ret -> fold b 11
  | Nop -> fold b 12

let routine ~externals program (r : Routine.t) =
  let b = scratch in
  b.h1 <- 0x4bf29ce484222325;
  b.h2 <- 0x2545F4914F6CDD1D;
  fold_string b r.name;
  fold_bool b r.exported;
  fold_bool b (String.equal r.name (Program.main program));
  fold b (List.length r.entries);
  List.iter (fold_string b) r.entries;
  fold b (List.length r.labels);
  List.iter
    (fun (l, i) ->
      fold_string b l;
      fold b i)
    r.labels;
  fold b (Array.length r.insns);
  Array.iter (add_insn ~externals program b) r.insns;
  let out = Bytes.create 16 in
  Bytes.set_int64_le out 0 (Int64.of_int b.h1);
  Bytes.set_int64_le out 8 (Int64.of_int b.h2);
  Bytes.unsafe_to_string out
