open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Spike_core

type renaming = {
  routine : int;
  saved : Reg.t;
  replacement : Reg.t;
  removed_instructions : int;
}

let candidate_pool =
  [ Reg.t0; Reg.t1; Reg.t2; Reg.t3; Reg.t4; Reg.t5; Reg.t6; Reg.t7; Reg.t8; Reg.t9;
    Reg.t10; Reg.t11; Reg.a0; Reg.a1; Reg.a2; Reg.a3; Reg.a4; Reg.a5 ]

let occurs reg insn =
  Regset.mem reg (Regset.union (Insn.defs insn) (Insn.uses insn))

(* Does the routine ever read its caller's incoming value of [s]?  Forward
   reachability of "s not yet defined", skipping the save/restore
   instructions; a use of [s] hit in that state is a read of the incoming
   value.  Calls conservatively do not count as definitions. *)
let reads_incoming (routine : Routine.t) (cfg : Cfg.t) s ~skip =
  let insns = routine.insns in
  let n = Cfg.block_count cfg in
  let undefined_at_start = Array.make n false in
  let found = ref false in
  (* Scan a block from [first]; returns true when s stays undefined at the
     block's end. *)
  let scan_block b =
    let last = Cfg.last cfg b in
    let rec scan i =
      if i > last then true
      else
        let insn = insns.(i) in
        if List.mem i skip then scan (i + 1)
        else begin
          if Regset.mem s (Insn.uses insn) then found := true;
          if Regset.mem s (Insn.defs insn) then false else scan (i + 1)
        end
    in
    scan (Cfg.first cfg b)
  in
  let worklist = Queue.create () in
  let push b =
    if not undefined_at_start.(b) then begin
      undefined_at_start.(b) <- true;
      Queue.add b worklist
    end
  in
  for i = 0 to Cfg.entry_count cfg - 1 do
    push (Cfg.entry_block cfg i)
  done;
  while not (Queue.is_empty worklist) do
    let b = Queue.take worklist in
    if scan_block b then Cfg.iter_succs push cfg b
  done;
  !found

(* The call graph as the rewrite must see it: the routines each routine
   may call directly, and whether it may also call unknown or external
   code, which could re-enter the image through any exported routine.
   The exported routines form one shared successor list instead of a
   copy per such call. *)
type call_graph = {
  succs : int list array;
  reenters : bool array;  (* calls unknown or external code *)
  exported : int list;
}

let call_graph (analysis : Analysis.t) =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let n = Program.routine_count program in
  let succs = Array.make n [] and reenters = Array.make n false in
  Array.iteri
    (fun c node ->
      let caller = Psg.routine_of_node psg node in
      if not (Psg.resolved psg c) then reenters.(caller) <- true;
      for i = psg.Psg.target_off.(c) to psg.Psg.target_off.(c + 1) - 1 do
        let x = psg.Psg.targets.(i) in
        if x >= 0 then succs.(caller) <- x :: succs.(caller)
        else reenters.(caller) <- true
      done)
    psg.Psg.call_node;
  let exported =
    List.filter (fun r -> (Program.get program r).Routine.exported) (List.init n Fun.id)
  in
  { succs; reenters; exported }

(* Can execution starting in any of [froms] (or, with [via_exported], in
   any exported routine) re-enter [r]?  Bounds the Figure 1(d) rewrite: a
   value parked in a caller-saved register must not live across a call
   that can recursively clobber it.  The exported routines are explored
   at most once per search, like one more vertex. *)
let can_reach g ~via_exported froms r =
  let visited = Array.make (Array.length g.succs) false in
  let exported_seen = ref false in
  let rec dfs x =
    x = r
    || (not visited.(x))
       && begin
            visited.(x) <- true;
            List.exists dfs g.succs.(x) || (g.reenters.(x) && exported ())
          end
  and exported () =
    (not !exported_seen)
    && begin
         exported_seen := true;
         List.exists dfs g.exported
       end
  in
  (via_exported && exported ()) || List.exists dfs froms

(* The renamings, each with the site whose instructions it deletes. *)
let find_sites (analysis : Analysis.t) liveness =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let graph = call_graph analysis in
  let renamings = ref [] in
  Program.iter
    (fun r (routine : Routine.t) ->
      let cfg = Analysis.cfg analysis r in
      let sites = Callee_saved.sites routine cfg in
      (* The routine's call sites, with their blocks. *)
      let call_blocks =
        let first = psg.Psg.first_call.(r) in
        List.init (psg.Psg.first_call.(r + 1) - first) (fun k ->
            let c = first + k in
            (Psg.block psg psg.Psg.call_node.(c), c))
      in
      let live_entry =
        match (analysis.Analysis.summaries.(r)).Summary.live_at_entry with
        | (_, l) :: _ -> l
        | [] -> Regset.empty
      in
      let live_exits =
        List.fold_left
          (fun acc (_, l) -> Regset.union acc l)
          Regset.empty
          (analysis.Analysis.summaries.(r)).Summary.live_at_exit
      in
      (* Each site may claim a different replacement register. *)
      let taken = ref Regset.empty in
      List.iter
        (fun (site : Callee_saved.site) ->
          let s = site.reg in
          let skip = site.save_index :: site.restore_indexes in
          let other_occurrences =
            let count = ref 0 in
            Array.iteri
              (fun i insn -> if (not (List.mem i skip)) && occurs s insn then incr count)
              routine.insns;
            !count
          in
          if other_occurrences = 0 then
            (* The save/restore protects nothing: plain deletion. *)
            renamings :=
              ( {
                  routine = r;
                  saved = s;
                  replacement = s;
                  removed_instructions = List.length skip;
                },
                site )
              :: !renamings
          else if not (reads_incoming routine cfg s ~skip) then begin
            let crossing_targets = ref [] in
            let crossing_external = ref false in
            let killed_across =
              List.fold_left
                (fun acc (block, c) ->
                  if Regset.mem s (Liveness.live_across_call liveness ~routine:r ~block)
                  then begin
                    (* An unresolved call is handled by the killed set: it
                       kills every caller-saved candidate. *)
                    for i = psg.Psg.target_off.(c) to psg.Psg.target_off.(c + 1) - 1 do
                      let x = psg.Psg.targets.(i) in
                      if x >= 0 then crossing_targets := x :: !crossing_targets
                      else crossing_external := true
                    done;
                    let site_class = Analysis.site_class analysis c in
                    Regset.union acc
                      (Regset.union site_class.Summary.killed
                         (Regset.union psg.Psg.call_def.(c) psg.Psg.call_use.(c)))
                  end
                  else acc)
                Regset.empty call_blocks
            in
            (* External code can re-enter through any exported routine. *)
            if can_reach graph ~via_exported:!crossing_external !crossing_targets r then ()
            else begin
            let suitable t =
              (not (Regset.mem t !taken))
              && (not (Regset.mem t killed_across))
              && (not (Regset.mem t live_entry))
              && (not (Regset.mem t live_exits))
              && not (Array.exists (occurs t) routine.insns)
            in
            (match List.find_opt suitable candidate_pool with
            | Some t ->
                taken := Regset.add t !taken;
                renamings :=
                  ( {
                      routine = r;
                      saved = s;
                      replacement = t;
                      removed_instructions = List.length skip;
                    },
                    site )
                  :: !renamings
            | None -> ())
            end
          end)
        sites)
    program;
  List.rev !renamings

let find analysis liveness = List.map fst (find_sites analysis liveness)

(* A routine's renamings touch disjoint registers and their sites' index
   lists are disjoint, so all of them apply to the routine as analysed:
   rename every register outside all the sites, then delete the sites'
   instructions in one rewrite. *)
let apply (analysis : Analysis.t) =
  let liveness = Liveness.compute analysis in
  let found = find_sites analysis liveness in
  let program = analysis.Analysis.program in
  let by_routine = Array.make (Program.routine_count program) [] in
  List.iter
    (fun ((ren, _) as x) -> by_routine.(ren.routine) <- x :: by_routine.(ren.routine))
    (List.rev found);
  let rewrite routine found =
    let skip =
      List.concat_map
        (fun (_, (site : Callee_saved.site)) -> site.save_index :: site.restore_indexes)
        found
    in
    let renamed =
      List.fold_left
        (fun routine (ren, _) ->
          if ren.replacement = ren.saved then routine
          else
            Rewrite.rename_register routine ~from_reg:ren.saved ~to_reg:ren.replacement
              ~except:skip)
        routine found
    in
    Rewrite.delete_instructions renamed skip
  in
  let routines =
    Array.mapi
      (fun r routine ->
        match by_routine.(r) with [] -> routine | found -> rewrite routine found)
      (Program.routines program)
  in
  (Program.make ~main:(Program.main program) (Array.to_list routines), List.map fst found)
