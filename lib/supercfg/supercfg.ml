open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg

type t = {
  program : Program.t;
  cfgs : Cfg.t array;
  offset : int array;  (* routine -> first global block id *)
  nblocks : int;
  succs : int list array;  (* global block id -> global successors *)
  preds : int list array;
  call_arcs : int;
  return_arcs : int;
  intra_arcs : int;
}

let global t routine block = t.offset.(routine) + block

let build program cfgs =
  let n = Array.length cfgs in
  let offset = Array.make n 0 in
  let nblocks = ref 0 in
  for r = 0 to n - 1 do
    offset.(r) <- !nblocks;
    nblocks := !nblocks + Cfg.block_count cfgs.(r)
  done;
  let nblocks = !nblocks in
  let succs = Array.make nblocks [] and preds = Array.make nblocks [] in
  let call_arcs = ref 0 and return_arcs = ref 0 and intra_arcs = ref 0 in
  let add_arc kind src dst =
    succs.(src) <- dst :: succs.(src);
    preds.(dst) <- src :: preds.(dst);
    incr kind
  in
  let t_partial =
    { program; cfgs; offset; nblocks; succs; preds; call_arcs = 0; return_arcs = 0; intra_arcs = 0 }
  in
  for r = 0 to n - 1 do
    let cfg = cfgs.(r) in
    for b = 0 to Cfg.block_count cfg - 1 do
      let src = global t_partial r b in
      match Cfg.ending cfg b with
      | Ends_call -> (
          assert (Cfg.succ_count cfg b = 1);
          let return_block = global t_partial r (Cfg.return_block cfg b) in
          match Program.callee_summary_targets program (Cfg.callee cfg b) with
          | None ->
              (* Unknown callee: keep the fallthrough arc; the standard
                 assumption lives in the block transfer. *)
              add_arc intra_arcs src return_block
          | Some targets ->
              List.iter
                (fun callee_index ->
                  let callee_cfg = cfgs.(callee_index) in
                  add_arc call_arcs src
                    (global t_partial callee_index (Cfg.entry_block callee_cfg 0));
                  List.iter
                    (fun exit_block ->
                      add_arc return_arcs
                        (global t_partial callee_index exit_block)
                        return_block)
                    (Cfg.exit_blocks callee_cfg))
                targets)
      | Ends_plain | Ends_switch ->
          Cfg.iter_succs (fun s -> add_arc intra_arcs src (global t_partial r s)) cfg b
      | Ends_ret | Ends_jump_unknown -> ()
    done
  done;
  {
    program;
    cfgs;
    offset;
    nblocks;
    succs;
    preds;
    call_arcs = !call_arcs;
    return_arcs = !return_arcs;
    intra_arcs = !intra_arcs;
  }

let block_count t = t.nblocks
let arc_count t = t.call_arcs + t.return_arcs + t.intra_arcs
let call_arc_count t = t.call_arcs
let return_arc_count t = t.return_arcs

type liveness = { owner : t; live_in_sets : Regset.t array; live_out_sets : Regset.t array }

(* Per-block transfer.  [Defuse] excludes a terminating call instruction,
   whose own effect — and, for unknown callees, the calling-standard
   assumption — composes after the block body. *)
let transfer t defuses ~routine ~block out =
  let cfg = t.cfgs.(routine) in
  let def = Defuse.def defuses.(routine) block
  and ubd = Defuse.ubd defuses.(routine) block in
  let mid =
    match Cfg.ending cfg block with
    | Ends_call -> (
        let insn = cfg.routine.Routine.insns.(Cfg.last cfg block) in
        let call_def = Insn.defs insn and call_use = Insn.uses insn in
        match Program.callee_summary_targets t.program (Cfg.callee cfg block) with
        | Some _ ->
            (* Known callee: its use/kill effect flows through the call
               arc; only the call's own hardware effect applies here. *)
            Regset.union call_use (Regset.diff out call_def)
        | None ->
            let kill = Regset.union call_def Calling_standard.unknown_call_defined in
            Regset.union
              (Regset.union call_use Calling_standard.unknown_call_used)
              (Regset.diff out kill))
    | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> out
  in
  Regset.union ubd (Regset.diff mid def)

let boundary_seed t ~routine ~block =
  let r = Program.get t.program routine in
  let main = Program.main t.program in
  match Cfg.ending t.cfgs.(routine) block with
  | Ends_jump_unknown -> Calling_standard.unknown_jump_live
  | Ends_ret ->
      let s = ref Regset.empty in
      if r.Routine.exported then
        s := Regset.union !s Calling_standard.external_return_live;
      if String.equal r.Routine.name main then
        s := Regset.union !s Calling_standard.return_regs;
      !s
  | Ends_plain | Ends_call | Ends_switch -> Regset.empty

let liveness t defuses =
  let live_in_sets = Array.make t.nblocks Regset.empty in
  let live_out_sets = Array.make t.nblocks Regset.empty in
  (* Map a global id back to (routine, block). *)
  let routine_of = Array.make t.nblocks 0 in
  Array.iteri
    (fun r off ->
      for b = 0 to Cfg.block_count t.cfgs.(r) - 1 do
        routine_of.(off + b) <- r
      done)
    t.offset;
  let on_list = Array.make t.nblocks false in
  let worklist = Queue.create () in
  let push g =
    if not on_list.(g) then begin
      on_list.(g) <- true;
      Queue.add g worklist
    end
  in
  for g = 0 to t.nblocks - 1 do
    push g
  done;
  while not (Queue.is_empty worklist) do
    let g = Queue.take worklist in
    on_list.(g) <- false;
    let routine = routine_of.(g) in
    let block = g - t.offset.(routine) in
    let out =
      List.fold_left
        (fun acc s -> Regset.union acc live_in_sets.(s))
        (boundary_seed t ~routine ~block)
        t.succs.(g)
    in
    live_out_sets.(g) <- out;
    let inn = transfer t defuses ~routine ~block out in
    if not (Regset.equal inn live_in_sets.(g)) then begin
      live_in_sets.(g) <- inn;
      List.iter push t.preds.(g)
    end
  done;
  { owner = t; live_in_sets; live_out_sets }

let live_in l ~routine ~block = l.live_in_sets.(global l.owner routine block)
let live_out l ~routine ~block = l.live_out_sets.(global l.owner routine block)
