open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
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

(* A pure instruction dies when none of its defs is live after it; one
   that defines sp never does, nor one that defines nothing but a nop. *)
let dies insn live_after =
  is_pure insn
  &&
  let defs = Insn.defs insn in
  (not (Regset.mem Reg.sp defs))
  && Regset.disjoint defs live_after
  && match insn with Insn.Nop -> true | _ -> not (Regset.is_empty defs)

(* A block's last instruction, or the one before its terminating call. *)
let body_last cfg b =
  match Cfg.ending cfg b with
  | Ends_call -> Cfg.last cfg b - 1
  | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> Cfg.last cfg b

(* The summaries stay fixed.  A first backward sweep of every block, from
   [liveness], marks what dies; a marked instruction's uses and defs leave
   the routine.  Each later sweep starts from the routine's block fixpoint
   re-solved without the marked instructions, until one marks nothing. *)
let find_dead (analysis : Analysis.t) liveness ~routine =
  let cfg = Analysis.cfg analysis routine in
  let insns = cfg.Cfg.routine.Routine.insns in
  let dead = Bytes.make (Array.length insns) '\000' in
  let is_dead i = Bytes.get dead i <> '\000' in
  (* Blocks in which something new died, last first. *)
  let sweep live_out =
    let touched = ref [] in
    for b = 0 to Cfg.block_count cfg - 1 do
      let live = ref (live_out b) in
      (match Cfg.ending cfg b with
      | Ends_call -> live := Liveness.live_before_call liveness ~routine ~block:b !live
      | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> ());
      let died = ref false in
      for i = body_last cfg b downto Cfg.first cfg b do
        if not (is_dead i) then begin
          let insn = insns.(i) in
          if dies insn !live then begin
            Bytes.set dead i '\001';
            died := true
          end
          else live := Regset.union (Insn.uses insn) (Regset.diff !live (Insn.defs insn))
        end
      done;
      if !died then touched := b :: !touched
    done;
    !touched
  in
  match sweep (fun block -> Liveness.live_out liveness ~routine ~block) with
  | [] -> []
  | touched ->
      let defuse = Analysis.defuse analysis routine in
      let n = Cfg.block_count cfg in
      let def = Array.init n (Defuse.def defuse) and ubd = Array.init n (Defuse.ubd defuse) in
      let rec cascade touched =
        List.iter
          (fun id ->
            let d = ref Regset.empty and u = ref Regset.empty in
            for i = body_last cfg id downto Cfg.first cfg id do
              if not (is_dead i) then begin
                let insn = insns.(i) in
                u := Regset.union (Insn.uses insn) (Regset.diff !u (Insn.defs insn));
                d := Regset.union !d (Insn.defs insn)
              end
            done;
            def.(id) <- !d;
            ubd.(id) <- !u)
          touched;
        let live_out = Liveness.solve liveness ~routine ~def ~ubd in
        match sweep (Array.get live_out) with [] -> () | touched -> cascade touched
      in
      cascade touched;
      let indexes = ref [] in
      for i = Array.length insns - 1 downto 0 do
        if is_dead i then indexes := i :: !indexes
      done;
      !indexes

let eliminate_round (analysis : Analysis.t) =
  let liveness = Liveness.compute analysis in
  let program = analysis.Analysis.program and removed = ref 0 in
  let routines =
    Array.mapi
      (fun r routine ->
        match find_dead analysis liveness ~routine:r with
        | [] -> routine
        | dead ->
            removed := !removed + List.length dead;
            Rewrite.delete_instructions routine dead)
      (Program.routines program)
  in
  (Program.make ~main:(Program.main program) (Array.to_list routines), !removed)

let eliminate ~rerun analysis =
  let rec loop analysis total =
    let program, removed = eliminate_round analysis in
    if removed = 0 then (program, total)
    else loop (rerun analysis program) (total + removed)
  in
  loop analysis 0
