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
  let scan_block (b : Cfg.block) =
    let rec scan i =
      if i > b.last then true
      else
        let insn = insns.(i) in
        if List.mem i skip then scan (i + 1)
        else begin
          if Regset.mem s (Insn.uses insn) then found := true;
          if Regset.mem s (Insn.defs insn) then false else scan (i + 1)
        end
    in
    scan b.first
  in
  let worklist = Queue.create () in
  let push b =
    if not undefined_at_start.(b) then begin
      undefined_at_start.(b) <- true;
      Queue.add b worklist
    end
  in
  List.iter (fun (_, b) -> push b) cfg.entry_blocks;
  while not (Queue.is_empty worklist) do
    let b = Queue.take worklist in
    if scan_block cfg.blocks.(b) then Array.iter push cfg.blocks.(b).succs
  done;
  !found

(* Call-graph successors: routines a routine may call directly.  Unknown
   targets may re-enter the image through any exported routine. *)
let call_successors (analysis : Analysis.t) =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let n = Program.routine_count program in
  let exported =
    List.filteri (fun r _ -> (Program.get program r).Routine.exported) (List.init n Fun.id)
  in
  let succs = Array.make n [] in
  Array.iter
    (fun (info : Psg.call_info) ->
      let caller = Psg.node_routine psg.Psg.kinds.(info.call_node) in
      let targets =
        match info.targets with
        | None -> exported
        | Some l ->
            List.concat_map
              (fun target ->
                match target with
                | Psg.Target_routine r -> [ r ]
                | Psg.Target_external _ ->
                    (* external code could re-enter through any exported
                       routine *)
                    exported)
              l
      in
      succs.(caller) <- targets @ succs.(caller))
    psg.Psg.calls;
  succs

(* Can execution starting in any of [froms] re-enter [r]?  Bounds the
   Figure 1(d) rewrite: a value parked in a caller-saved register must not
   live across a call that can recursively clobber it. *)
let can_reach succs froms r =
  let visited = Array.make (Array.length succs) false in
  let rec dfs x =
    x = r
    || (not visited.(x))
       && begin
            visited.(x) <- true;
            List.exists dfs succs.(x)
          end
  in
  List.exists dfs froms

let find (analysis : Analysis.t) liveness =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let succs = call_successors analysis in
  let renamings = ref [] in
  Program.iter
    (fun r (routine : Routine.t) ->
      let cfg = Analysis.cfg analysis r in
      let sites = Callee_saved.sites routine cfg in
      (* Registers killed at each call site where a given register is live
         across; precomputed once per routine. *)
      let call_blocks =
        List.filter_map
          (fun (info : Psg.call_info) ->
            match psg.Psg.kinds.(info.call_node) with
            | Psg.Call { routine = cr; block } when cr = r -> Some (block, info)
            | Psg.Call _ -> None
            | Psg.Entry _ | Psg.Exit _ | Psg.Return _ | Psg.Branch _
            | Psg.Unknown_exit _ ->
                assert false)
          (Array.to_list psg.Psg.calls)
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
              {
                routine = r;
                saved = s;
                replacement = s;
                removed_instructions = List.length skip;
              }
              :: !renamings
          else if not (reads_incoming routine cfg s ~skip) then begin
            let crossing_targets = ref [] in
            let crossing_external = ref false in
            let killed_across =
              List.fold_left
                (fun acc (block, info) ->
                  if Regset.mem s (Liveness.live_across_call liveness ~routine:r ~block)
                  then begin
                    (match info.Psg.targets with
                    | Some l ->
                        List.iter
                          (fun target ->
                            match target with
                            | Psg.Target_routine i ->
                                crossing_targets := i :: !crossing_targets
                            | Psg.Target_external _ -> crossing_external := true)
                          l
                    | None ->
                        (* handled by the killed set: unknown calls kill
                           every caller-saved candidate *)
                        ());
                    let site_class = Analysis.site_class analysis info in
                    Regset.union acc
                      (Regset.union site_class.Summary.killed
                         (Regset.union info.call_def info.call_use))
                  end
                  else acc)
                Regset.empty call_blocks
            in
            let froms =
              if !crossing_external then
                (* external code can re-enter through any exported
                   routine *)
                List.filteri
                  (fun i _ -> (Program.get program i).Routine.exported)
                  (List.init (Program.routine_count program) Fun.id)
                @ !crossing_targets
              else !crossing_targets
            in
            if can_reach succs froms r then ()
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
                  {
                    routine = r;
                    saved = s;
                    replacement = t;
                    removed_instructions = List.length skip;
                  }
                  :: !renamings
            | None -> ())
            end
          end)
        sites)
    program;
  List.rev !renamings

let apply (analysis : Analysis.t) =
  let liveness = Liveness.compute analysis in
  let renamings = find analysis liveness in
  let program =
    Program.make
      ~main:(Program.main analysis.Analysis.program)
      (Array.to_list
         (Array.mapi
            (fun r routine ->
              let mine = List.filter (fun ren -> ren.routine = r) renamings in
              List.fold_left
                (fun routine ren ->
                  (* Site indexes refer to the original routine; recompute
                     them against the current one. *)
                  let cfg = Cfg.build routine in
                  match
                    List.find_opt
                      (fun (site : Callee_saved.site) -> site.reg = ren.saved)
                      (Callee_saved.sites routine cfg)
                  with
                  | None -> routine
                  | Some site ->
                      let skip = site.save_index :: site.restore_indexes in
                      let routine =
                        if ren.replacement = ren.saved then routine
                        else
                          Rewrite.rename_register routine ~from_reg:ren.saved
                            ~to_reg:ren.replacement ~except:skip
                      in
                      Rewrite.delete_instructions routine skip)
                routine mine)
            (Program.routines analysis.Analysis.program)))
  in
  (program, renamings)
