open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Spike_core

type removal = {
  routine : int;
  store_index : int;
  load_index : int;
  spilled : Reg.t;
}

let defines reg insn = Regset.mem reg (Insn.defs insn)
let defines_sp insn = Regset.mem Reg.sp (Insn.defs insn)

(* Number of instructions accessing off(sp) in the routine. *)
let slot_accesses (r : Routine.t) off =
  Array.fold_left
    (fun n insn ->
      match insn with
      | Insn.Load { base; offset; _ } | Insn.Store { base; offset; _ }
        when base = Reg.sp && offset = off ->
          n + 1
      | _ -> n)
    0 r.insns

let find (analysis : Analysis.t) =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let removals = ref [] in
  Array.iteri
    (fun c node ->
      let routine = Psg.routine_of_node psg node and block = Psg.block psg node in
      let cfg = Analysis.cfg analysis routine in
      let r = Program.get program routine in
      let insns = r.Routine.insns in
      let return_block = Cfg.return_block cfg block in
      let return_last = Cfg.last cfg return_block in
      let killed =
        let site = Analysis.site_class analysis c in
        Regset.union site.Summary.killed
          (Regset.union psg.Psg.call_def.(c) psg.Psg.call_use.(c))
      in
      (* Backward from the call for a spilling store. *)
      let rec find_store i barrier =
        if i < Cfg.first cfg block then None
        else
          match insns.(i) with
          | Insn.Store { src; base = sp; offset }
            when sp = Reg.sp
                 && Regset.mem src Calling_standard.caller_saved
                 && (not (Regset.mem src barrier))
                 && not (Regset.mem Reg.sp barrier) ->
              Some (i, src, offset)
          | insn ->
              if defines_sp insn then None
              else find_store (i - 1) (Regset.union barrier (Insn.defs insn))
      in
      (* Forward through the return block for the reload. *)
      let rec find_load i reg off =
        if i > return_last then None
        else
          match insns.(i) with
          | Insn.Load { dst; base = sp; offset }
            when sp = Reg.sp && dst = reg && offset = off ->
              Some i
          | insn ->
              if defines reg insn || defines_sp insn || Insn.is_call insn then None
              else find_load (i + 1) reg off
      in
      match find_store (Cfg.last cfg block - 1) Regset.empty with
      | Some (store_index, reg, off)
        when (not (Regset.mem reg killed))
             && slot_accesses r off = 2
             (* The reload must run only on the return path. *)
             && Cfg.pred_count cfg return_block = 1 -> (
          match find_load (Cfg.first cfg return_block) reg off with
          | Some load_index ->
              removals := { routine; store_index; load_index; spilled = reg } :: !removals
          | None -> ())
      | Some _ | None -> ())
    psg.Psg.call_node;
  List.rev !removals

let apply (analysis : Analysis.t) =
  let removals = find analysis in
  let by_routine = Hashtbl.create 8 in
  List.iter
    (fun rem ->
      let existing =
        match Hashtbl.find_opt by_routine rem.routine with Some l -> l | None -> []
      in
      Hashtbl.replace by_routine rem.routine
        (rem.store_index :: rem.load_index :: existing))
    removals;
  let program =
    Program.make
      ~main:(Program.main analysis.Analysis.program)
      (Array.to_list
         (Array.mapi
            (fun r routine ->
              match Hashtbl.find_opt by_routine r with
              | Some dead -> Rewrite.delete_instructions routine dead
              | None -> routine)
            (Program.routines analysis.Analysis.program)))
  in
  (program, removals)
