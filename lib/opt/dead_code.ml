open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

(* Pure instructions: no memory write, no control effect; deleting one is
   observable only through the registers it defines. *)
let is_pure = function
  | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Nop -> true
  | Insn.Store _ | Insn.Br _ | Insn.Bcond _ | Insn.Switch _ | Insn.Jump_unknown _
  | Insn.Call _ | Insn.Ret ->
      false

(* Loads are pure for dead-code purposes only if the machine cannot fault;
   our memory model reads 0 for unmapped addresses, so they are. *)

let find_dead (analysis : Analysis.t) liveness ~routine =
  let cfg = Analysis.cfg analysis routine in
  let dead = ref [] in
  Array.iter
    (fun (b : Spike_cfg.Cfg.block) ->
      Liveness.iter_block_backward liveness ~routine ~block:b.Spike_cfg.Cfg.id
        (fun index insn live_after ->
          if is_pure insn then begin
            let defs = Insn.defs insn in
            let keeps_sp = Regset.mem Reg.sp defs in
            if (not keeps_sp) && Regset.disjoint defs live_after then
              match insn with
              | Insn.Nop -> dead := index :: !dead
              | _ -> if not (Regset.is_empty defs) then dead := index :: !dead
          end))
    cfg.Spike_cfg.Cfg.blocks;
  List.sort_uniq Int.compare !dead

let eliminate_round (analysis : Analysis.t) =
  let liveness = Liveness.compute analysis in
  let removed = ref 0 in
  let program =
    Program.make
      ~main:(Program.main analysis.Analysis.program)
      (Array.to_list
         (Array.mapi
            (fun r routine ->
              match find_dead analysis liveness ~routine:r with
              | [] -> routine
              | dead ->
                  removed := !removed + List.length dead;
                  Rewrite.delete_instructions routine dead)
            (Program.routines analysis.Analysis.program)))
  in
  (program, !removed)

let eliminate ~rerun analysis =
  let rec loop analysis total =
    let program, removed = eliminate_round analysis in
    if removed = 0 then (program, total)
    else loop (rerun analysis program) (total + removed)
  in
  loop analysis 0
