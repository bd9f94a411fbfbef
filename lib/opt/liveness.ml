open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Spike_core

type t = {
  analysis : Analysis.t;
  live_in_sets : Regset.t array array;  (* routine -> block -> live-in *)
  live_out_sets : Regset.t array array;
      (* for a call block: liveness at the return point, before the call
         summary is applied *)
  site_of_block : (int * int, int) Hashtbl.t;  (* (routine, block) -> call *)
}

(* Compose the call instruction's own effect with the merged callee class,
   as one backward gen/kill pair. *)
let call_gen_kill (analysis : Analysis.t) c =
  let psg = analysis.psg in
  let site = Analysis.site_class analysis c in
  let call_use = psg.call_use.(c) and call_def = psg.call_def.(c) in
  let gen = Regset.union call_use (Regset.diff site.Summary.used call_def) in
  let kill = Regset.union call_def site.Summary.defined in
  (gen, kill)

let cross_call analysis c live_after =
  let gen, kill = call_gen_kill analysis c in
  Regset.union gen (Regset.diff live_after kill)

(* The least fixpoint of routine [r]'s block equations, from empty, with
   block [b]'s DEF and UBD (its terminating call excluded) given by
   [def b] and [ubd b]: (live-in, live-out) per block. *)
let solve_routine analysis site_of_block r ~def ~ubd =
  let cfg = Analysis.cfg analysis r in
  let n = Cfg.block_count cfg in
  let live_in = Array.make n Regset.empty and live_out = Array.make n Regset.empty in
  let exit_live = (analysis.Analysis.summaries.(r)).Summary.live_at_exit in
  let out_of b =
    match Cfg.ending cfg b with
    | Ends_ret -> (
        match List.assoc_opt b exit_live with Some l -> l | None -> Regset.empty)
    | Ends_jump_unknown -> Calling_standard.unknown_jump_live
    | Ends_call ->
        (* Liveness at the return point. *)
        live_in.(Cfg.return_block cfg b)
    | Ends_plain | Ends_switch ->
        Cfg.fold_succs (fun acc s -> Regset.union acc live_in.(s)) Regset.empty cfg b
  in
  let transfer b out =
    let mid =
      match Cfg.ending cfg b with
      | Ends_call -> (
          match Hashtbl.find_opt site_of_block (r, b) with
          | Some c -> cross_call analysis c out
          | None -> assert false)
      | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> out
    in
    Regset.union (ubd b) (Regset.diff mid (def b))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let out = out_of b in
      live_out.(b) <- out;
      let inn = transfer b out in
      if not (Regset.equal inn live_in.(b)) then begin
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

let compute (analysis : Analysis.t) =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let site_of_block = Hashtbl.create 64 in
  Array.iteri
    (fun c node ->
      Hashtbl.replace site_of_block (Psg.routine_of_node psg node, Psg.block psg node) c)
    psg.Psg.call_node;
  let nroutines = Program.routine_count program in
  let live_in_sets = Array.make nroutines [||] and live_out_sets = Array.make nroutines [||] in
  for r = 0 to nroutines - 1 do
    let defuse = Analysis.defuse analysis r in
    let live_in, live_out =
      solve_routine analysis site_of_block r ~def:(Defuse.def defuse)
        ~ubd:(Defuse.ubd defuse)
    in
    live_in_sets.(r) <- live_in;
    live_out_sets.(r) <- live_out
  done;
  { analysis; live_in_sets; live_out_sets; site_of_block }

let live_in t ~routine ~block = t.live_in_sets.(routine).(block)
let live_out t ~routine ~block = t.live_out_sets.(routine).(block)

let not_a_call name = invalid_arg ("Liveness." ^ name ^ ": block does not end in a call")

let live_across_call t ~routine ~block =
  let cfg = Analysis.cfg t.analysis routine in
  match Cfg.ending cfg block with
  | Ends_call -> t.live_out_sets.(routine).(block)
  | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> not_a_call "live_across_call"

let live_before_call t ~routine ~block live =
  match Hashtbl.find_opt t.site_of_block (routine, block) with
  | Some c -> cross_call t.analysis c live
  | None -> not_a_call "live_before_call"

let solve t ~routine ~def ~ubd =
  snd (solve_routine t.analysis t.site_of_block routine ~def:(Array.get def) ~ubd:(Array.get ubd))
