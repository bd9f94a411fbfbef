open Spike_support
open Spike_isa
open Spike_ir

type t = { def : Regset.t array; ubd : Regset.t array }

let block_sets insns first last =
  let def = ref Regset.empty and ubd = ref Regset.empty in
  let upper =
    if last >= first && Insn.is_call insns.(last) then last - 1 else last
  in
  for i = first to upper do
    let insn = insns.(i) in
    ubd := Regset.union !ubd (Regset.diff (Insn.uses insn) !def);
    def := Regset.union !def (Insn.defs insn)
  done;
  (!def, !ubd)

let compute (g : Cfg.t) =
  let insns = g.Cfg.routine.Routine.insns in
  let n = Cfg.block_count g in
  let def = Array.make n Regset.empty and ubd = Array.make n Regset.empty in
  Array.iteri
    (fun i (b : Cfg.block) ->
      let d, u = block_sets insns b.Cfg.first b.Cfg.last in
      def.(i) <- d;
      ubd.(i) <- u)
    g.Cfg.blocks;
  { def; ubd }

let def t b = t.def.(b)
let ubd t b = t.ubd.(b)
