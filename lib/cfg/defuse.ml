open Spike_support
open Spike_isa
open Spike_ir

type t = Regset.t array

let compute (g : Cfg.t) =
  let insns = g.Cfg.routine.Routine.insns in
  let n = Cfg.block_count g in
  let sets = Array.make (2 * n) Regset.empty in
  for b = 0 to n - 1 do
    let last = Cfg.last g b in
    let upper =
      match Cfg.ending g b with
      | Ends_call -> last - 1
      | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> last
    in
    let d = ref Regset.empty and u = ref Regset.empty in
    for i = Cfg.first g b to upper do
      let insn = insns.(i) in
      u := Regset.union !u (Regset.diff (Insn.uses insn) !d);
      d := Regset.union !d (Insn.defs insn)
    done;
    sets.(2 * b) <- !d;
    sets.((2 * b) + 1) <- !u
  done;
  sets

let def t b = t.(2 * b)
let ubd t b = t.((2 * b) + 1)
