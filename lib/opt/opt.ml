open Spike_ir
open Spike_core

type report = {
  spills_removed : int;
  save_restores_rewritten : int;
  save_restore_instructions_removed : int;
  dead_instructions_removed : int;
  instructions_before : int;
  instructions_after : int;
  reanalyses : int;
  routines_rebuilt : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>spill pairs removed:        %d@ save/restores reallocated:  %d (-%d \
     instructions)@ dead instructions removed:  %d@ instructions: %d -> %d \
     (%.1f%%)@ re-analyses:                %d (%d routines rebuilt)@]"
    r.spills_removed r.save_restores_rewritten r.save_restore_instructions_removed
    r.dead_instructions_removed r.instructions_before r.instructions_after
    (if r.instructions_before = 0 then 0.0
     else
       100.0
       *. float_of_int (r.instructions_before - r.instructions_after)
       /. float_of_int r.instructions_before)
    r.reanalyses r.routines_rebuilt

let run (analysis : Analysis.t) =
  let instructions_before = Program.instruction_count analysis.Analysis.program in
  let reanalyses = ref 0 and routines_rebuilt = ref 0 in
  let rerun analysis program =
    let analysis = Analysis.rerun analysis program in
    incr reanalyses;
    routines_rebuilt :=
      !routines_rebuilt + Program.routine_count program - analysis.Analysis.reused_routines;
    analysis
  in
  let program, spill_removals = Spill.apply analysis in
  let analysis = rerun analysis program in
  let program, renamings = Save_restore.apply analysis in
  let analysis = rerun analysis program in
  let program, dead = Dead_code.eliminate ~rerun analysis in
  let report =
    {
      spills_removed = List.length spill_removals;
      save_restores_rewritten = List.length renamings;
      save_restore_instructions_removed =
        List.fold_left
          (fun n (r : Save_restore.renaming) -> n + r.Save_restore.removed_instructions)
          0 renamings;
      dead_instructions_removed = dead;
      instructions_before;
      instructions_after = Program.instruction_count program;
      reanalyses = !reanalyses;
      routines_rebuilt = !routines_rebuilt;
    }
  in
  (program, report)
