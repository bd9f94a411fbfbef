open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Spike_core

type t = {
  call_classes : Summary.call_class array;
  live_at_entry : Regset.t array;
  live_at_exit : (int * Regset.t) list array;
}

type triple = Edge_dataflow.sets

let triple_equal (a : triple) (b : triple) =
  Regset.equal a.may_use b.may_use
  && Regset.equal a.may_def b.may_def
  && Regset.equal a.must_def b.must_def

(* Apply a call-return-edge label backward across a call: from the sets at
   the return point to the sets just before the call instruction. *)
let cross_call (e : triple) (after : triple) : triple =
  {
    may_use = Regset.union e.may_use (Regset.diff after.may_use e.must_def);
    may_def = Regset.union e.may_def after.may_def;
    must_def = Regset.union e.must_def after.must_def;
  }

let cr_label ~call_def ~call_use (callee : triple) : triple =
  {
    may_use = Regset.union call_use (Regset.diff callee.may_use call_def);
    may_def = Regset.union call_def callee.may_def;
    must_def = Regset.union call_def callee.must_def;
  }

let unknown_callee : triple =
  {
    may_use = Calling_standard.unknown_call_used;
    may_def = Calling_standard.unknown_call_killed;
    must_def = Calling_standard.unknown_call_defined;
  }

let unknown_jump_boundary : triple =
  {
    may_use = Calling_standard.unknown_jump_live;
    may_def = Calling_standard.all_allocatable;
    must_def = Regset.empty;
  }

let neutral : triple = Edge_dataflow.top_must

(* Blocks from which some anchor (call / ret / unknown jump / multiway
   branch) is reachable.  The PSG only summarizes paths that end at an
   anchor, so uses in non-productive blocks are invisible to it; the
   reference reproduces that by excluding such blocks from the meets. *)
let productive (cfg : Cfg.t) =
  let n = Cfg.block_count cfg in
  let productive = Array.make n false in
  let pred_off = Array.make (n + 1) 0 and pred_adj = Array.make (Cfg.arc_count cfg) 0 in
  Cfg.pred_rows cfg ~off:pred_off ~adj:pred_adj;
  let rec mark b =
    if not productive.(b) then begin
      productive.(b) <- true;
      for k = pred_off.(b) to pred_off.(b + 1) - 1 do
        mark pred_adj.(k)
      done
    end
  in
  for b = 0 to n - 1 do
    match Cfg.ending cfg b with
    | Ends_call | Ends_ret | Ends_jump_unknown | Ends_switch -> mark b
    | Ends_plain -> ()
  done;
  productive

(* One intraprocedural pass: backward triple dataflow over the routine's
   full CFG, with the current callee classes summarising calls.  Returns
   the IN triple per block.  [extra_exit_out] supplies the boundary OUT at
   ret blocks (used for the liveness phase); phase A passes the empty
   triple. *)
let solve_routine program cfg defuse ~externals ~classes ~exit_out =
  let n = Cfg.block_count cfg in
  let productive = productive cfg in
  let ins = Array.make n neutral in
  let rpo = Cfg.reverse_postorder cfg in
  let call_label b =
    let insn = cfg.Cfg.routine.Routine.insns.(Cfg.last cfg b) in
    let call_def = Insn.defs insn and call_use = Insn.uses insn in
    let callee = Cfg.callee cfg b in
    let resolve_name name =
      match Program.find_index program name with
      | Some i -> Some (`Routine i)
      | None -> (
          match externals name with
          | Some c -> Some (`External c)
          | None -> None)
    in
    let targets =
      match callee with
      | Insn.Direct name -> Option.map (fun t -> [ t ]) (resolve_name name)
      | Insn.Indirect (_, None) | Insn.Indirect (_, Some []) -> None
      | Insn.Indirect (_, Some names) ->
          let resolved = List.map resolve_name names in
          if List.exists Option.is_none resolved then None
          else Some (List.filter_map Fun.id resolved)
    in
    match targets with
    | None -> cr_label ~call_def ~call_use unknown_callee
    | Some targets ->
        let merged =
          List.fold_left
            (fun acc target ->
              let c : triple =
                match target with
                | `Routine r -> classes r
                | `External (x : Psg.external_class) ->
                    {
                      Edge_dataflow.may_use = x.Psg.x_used;
                      may_def = x.Psg.x_killed;
                      must_def = x.Psg.x_defined;
                    }
              in
              {
                Edge_dataflow.may_use = Regset.union acc.Edge_dataflow.may_use c.may_use;
                may_def = Regset.union acc.may_def c.may_def;
                must_def = Regset.inter acc.must_def c.must_def;
              })
            neutral targets
        in
        cr_label ~call_def ~call_use merged
  in
  let out_of b =
    match Cfg.ending cfg b with
    | Ends_ret -> exit_out b
    | Ends_jump_unknown -> unknown_jump_boundary
    | Ends_call ->
        assert (Cfg.succ_count cfg b = 1);
        let return_block = Cfg.return_block cfg b in
        let at_return = if productive.(return_block) then ins.(return_block) else neutral in
        cross_call (call_label b) at_return
    | Ends_plain | Ends_switch ->
        Cfg.fold_succs
          (fun acc s ->
            if productive.(s) then
              {
                Edge_dataflow.may_use =
                  Regset.union acc.Edge_dataflow.may_use ins.(s).Edge_dataflow.may_use;
                may_def = Regset.union acc.may_def ins.(s).Edge_dataflow.may_def;
                must_def = Regset.inter acc.must_def ins.(s).Edge_dataflow.must_def;
              }
            else acc)
          neutral cfg b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Backward analysis: visit in reversed reverse-postorder. *)
    for i = Array.length rpo - 1 downto 0 do
      let id = rpo.(i) in
      if productive.(id) then begin
        let next =
          Edge_dataflow.apply_block
            ~def:(Defuse.def defuse id)
            ~ubd:(Defuse.ubd defuse id)
            (out_of id)
        in
        if not (triple_equal next ins.(id)) then begin
          ins.(id) <- next;
          changed := true
        end
      end
    done
  done;
  (ins, productive)

let empty_triple : triple = Edge_dataflow.empty

let run ?(externals = fun _ -> None) program =
  let nroutines = Program.routine_count program in
  let routines = Program.routines program in
  let cfgs = Array.map Cfg.build routines in
  let defuses = Array.map Defuse.compute cfgs in
  let filters =
    Array.mapi (fun r cfg -> Callee_saved.saved_and_restored routines.(r) cfg) cfgs
  in
  let primary_entry_block r = Cfg.entry_block cfgs.(r) 0 in
  (* --- Phase A: call classes to global fixpoint ----------------------- *)
  let raw = Array.make nroutines neutral in
  let stable = ref false in
  while not !stable do
    stable := true;
    for r = 0 to nroutines - 1 do
      let ins, productive =
        solve_routine program cfgs.(r) defuses.(r) ~externals
          ~classes:(fun callee -> raw.(callee))
          ~exit_out:(fun _ -> empty_triple)
      in
      let eb = primary_entry_block r in
      let at_entry = if productive.(eb) then ins.(eb) else neutral in
      let mask = filters.(r) in
      let filtered =
        {
          Edge_dataflow.may_use = Regset.diff at_entry.Edge_dataflow.may_use mask;
          may_def = Regset.diff at_entry.may_def mask;
          must_def = Regset.diff at_entry.must_def mask;
        }
      in
      if not (triple_equal filtered raw.(r)) then begin
        raw.(r) <- filtered;
        stable := false
      end
    done
  done;
  (* --- Phase B: liveness to global fixpoint --------------------------- *)
  (* Liveness reuses the triple machinery with only may_use varying; the
     may_def/must_def components ride along with their final values, which
     keeps cross_call's kill (must_def of the call-return label) correct. *)
  let live_seed r =
    let routine = routines.(r) in
    let s = ref Regset.empty in
    if routine.Routine.exported then
      s := Regset.union !s Calling_standard.external_return_live;
    if String.equal routine.Routine.name (Program.main program) then
      s := Regset.union !s Calling_standard.return_regs;
    !s
  in
  let exit_live =
    Array.init nroutines (fun r ->
        List.map (fun b -> (b, live_seed r)) (Cfg.exit_blocks cfgs.(r)))
  in
  (* Call sites per callee: (caller, return block) list. *)
  let return_sites = Array.make nroutines [] in
  Array.iteri
    (fun caller cfg ->
      List.iter
        (fun (block, callee) ->
          match Program.callee_summary_targets program callee with
          | None -> ()
          | Some targets ->
              let return_block = Cfg.return_block cfg block in
              List.iter
                (fun target ->
                  return_sites.(target) <- (caller, return_block) :: return_sites.(target))
                targets)
        (Cfg.call_sites cfg))
    cfgs;
  let entry_live = Array.make nroutines Regset.empty in
  let live_ins = Array.make nroutines [||] in
  let stable = ref false in
  while not !stable do
    stable := true;
    for r = 0 to nroutines - 1 do
      let ins, productive =
        solve_routine program cfgs.(r) defuses.(r) ~externals
          ~classes:(fun callee -> raw.(callee))
          ~exit_out:(fun block ->
            match List.assoc_opt block exit_live.(r) with
            | Some live -> { empty_triple with Edge_dataflow.may_use = live }
            | None -> empty_triple)
      in
      live_ins.(r) <-
        Array.mapi
          (fun b (t : triple) ->
            if productive.(b) then t.Edge_dataflow.may_use else Regset.empty)
          ins;
      let eb = primary_entry_block r in
      entry_live.(r) <- live_ins.(r).(eb)
    done;
    (* Propagate caller return-point liveness into callee exits. *)
    for r = 0 to nroutines - 1 do
      let updated =
        List.map
          (fun (block, _live) ->
            let from_callers =
              List.fold_left
                (fun acc (caller, return_block) ->
                  Regset.union acc live_ins.(caller).(return_block))
                (live_seed r) return_sites.(r)
            in
            (block, from_callers))
          exit_live.(r)
      in
      if
        not
          (List.for_all2
             (fun (_, a) (_, b) -> Regset.equal a b)
             exit_live.(r) updated)
      then begin
        exit_live.(r) <- updated;
        stable := false
      end
    done
  done;
  let mask = Calling_standard.all_allocatable in
  {
    call_classes =
      Array.map
        (fun (t : triple) ->
          {
            Summary.used = Regset.inter t.Edge_dataflow.may_use mask;
            defined = Regset.inter t.must_def mask;
            killed = Regset.inter t.may_def mask;
          })
        raw;
    live_at_entry = Array.map (fun l -> Regset.inter l mask) entry_live;
    live_at_exit =
      Array.map
        (fun exits -> List.map (fun (b, l) -> (b, Regset.inter l mask)) exits)
        exit_live;
  }
