open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg

(* Recognise the prologue/epilogue save-restore idiom.  Everything here errs
   toward reporting nothing: a register is only filtered from the routine's
   exported summary when the save/restore evidence is complete. *)

let defines_sp insn = Regset.mem Reg.sp (Insn.defs insn)

(* The frame discipline: either sp is never defined, or the entry block's
   first instruction is [lda sp, -n(sp)] and the instruction before each ret
   is [lda sp, n(sp)], and these are the only sp definitions. *)
let frame_discipline_ok (routine : Routine.t) (cfg : Cfg.t) ~sp_defs ~entry_block
    ~exit_blocks =
  let insns = routine.insns in
  match sp_defs with
  | [] -> Some None
  | first :: rest -> (
      match insns.(first) with
      | Insn.Lda { dst; base; offset }
        when dst = Reg.sp && base = Reg.sp && offset < 0
             && first = Cfg.first cfg entry_block ->
          let n = -offset in
          let expected = List.map (fun e -> Cfg.last cfg e - 1) exit_blocks in
          let is_readjust i =
            i >= 0
            &&
            match insns.(i) with
            | Insn.Lda { dst; base; offset } ->
                dst = Reg.sp && base = Reg.sp && offset = n
            | _ -> false
          in
          if
            List.for_all is_readjust expected
            && List.sort Int.compare rest = List.sort Int.compare expected
          then Some (Some n)
          else None
      | _ -> None)

type site = {
  reg : Reg.t;
  save_index : int;
  restore_indexes : int list;
}

let sites (routine : Routine.t) (cfg : Cfg.t) =
  let insns = routine.insns in
  let exit_blocks = Cfg.exit_blocks cfg in
  match Cfg.unknown_jump_blocks cfg with
  | _ :: _ -> [] (* may leave without restoring *)
  | []
    when Cfg.entry_count cfg = 1
         && Cfg.pred_count cfg (Cfg.entry_block cfg 0) = 0
         && exit_blocks <> [] -> (
      let entry_block = Cfg.entry_block cfg 0 in
      (* Candidate saves in the entry block: store of an unclobbered
         callee-saved register to a fresh sp slot. *)
      let candidates = ref [] (* (reg, offset, save_index) *) in
      let defined = ref Regset.empty in
      let slot_taken off = List.exists (fun (_, o, _) -> o = off) !candidates in
      let entry_last = Cfg.last cfg entry_block in
      let body_last =
        match Cfg.ending cfg entry_block with
        | Ends_call -> entry_last - 1
        | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> entry_last
      in
      for i = Cfg.first cfg entry_block to body_last do
        (match insns.(i) with
        | Insn.Store { src; base; offset }
          when base = Reg.sp
               && Regset.mem src Calling_standard.callee_saved
               && src <> Reg.sp
               && (not (Regset.mem src !defined))
               && not (slot_taken offset) ->
            candidates := (src, offset, i) :: !candidates
        | _ -> ());
        defined := Regset.union !defined (Insn.defs insns.(i))
      done;
      let candidates = Array.of_list (List.rev !candidates) in
      (* One pass over the routine gathers what the checks read of all of
         it: the sp definitions, ascending, and how many stores write each
         candidate's slot. *)
      let stores = Array.make (Array.length candidates) 0 in
      let sp_defs = ref [] in
      if candidates <> [||] then
        for i = Array.length insns - 1 downto 0 do
          match insns.(i) with
          | Insn.Store { base; offset; _ } when base = Reg.sp ->
              Array.iteri
                (fun k (_, off, _) -> if off = offset then stores.(k) <- stores.(k) + 1)
                candidates
          | insn -> if defines_sp insn then sp_defs := i :: !sp_defs
        done;
      match
        if candidates = [||] then None
        else frame_discipline_ok routine cfg ~sp_defs:!sp_defs ~entry_block ~exit_blocks
      with
      | None -> []
      | Some frame ->
          (* Every ret block must reload the register from the slot, with no
             later definition of it before the ret.  Returns the reload's
             index. *)
          let restored_at_exit (s, off, _) e =
            let last = Cfg.last cfg e in
            let zone_last = match frame with Some _ -> last - 2 | None -> last - 1 in
            let rec defined_after i =
              i <= last - 1 && (Regset.mem s (Insn.defs insns.(i)) || defined_after (i + 1))
            in
            let rec find i =
              if i > zone_last then None
              else
                match insns.(i) with
                | Insn.Load { dst; base; offset }
                  when dst = s && base = Reg.sp && offset = off ->
                    if defined_after (i + 1) then find (i + 1) else Some i
                | _ -> find (i + 1)
            in
            find (Cfg.first cfg e)
          in
          (* The save must be the slot's only store. *)
          let site_of k ((s, _, save_index) as c) =
            if stores.(k) = 1 then
              let restores = List.map (restored_at_exit c) exit_blocks in
              if List.for_all Option.is_some restores then
                Some
                  {
                    reg = s;
                    save_index;
                    restore_indexes = List.filter_map Fun.id restores;
                  }
              else None
            else None
          in
          List.filter_map Fun.id (Array.to_list (Array.mapi site_of candidates)))
  | [] -> []

let saved_and_restored routine cfg =
  List.fold_left (fun acc site -> Regset.add site.reg acc) Regset.empty
    (sites routine cfg)
