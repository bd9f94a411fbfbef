open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

type violation = {
  check : string;
  routine : string;
  registers : Regset.t;
  detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s violated in %s: %a (%s)" v.check v.routine
    (Regset.pp ~name:Reg.name) v.registers v.detail

(* One observation window: registers written since it opened, and registers
   read before being written. *)
type window = { mutable written : Regset.t; mutable rbw : Regset.t }

let fresh_window () = { written = Regset.empty; rbw = Regset.empty }

let observe_insn window insn =
  let uses = Insn.uses insn and defs = Insn.defs insn in
  window.rbw <- Regset.union window.rbw (Regset.diff uses window.written);
  window.written <- Regset.union window.written defs

type call_frame = {
  frame_routine : int;
  window : window;
  entry_values : int array;  (* register snapshot at callee entry *)
}

type liveness_probe = {
  probe_routine : int;
  probe_window : window;
  expected : Regset.t;
  probe_check : string;
}

let check ?fuel ?(max_observations = 256) (analysis : Analysis.t) =
  let program = analysis.Analysis.program in
  let psg = analysis.Analysis.psg in
  let violations = ref [] in
  let report check routine registers detail =
    if not (Regset.is_empty registers) then
      violations :=
        { check; routine = (Program.get program routine).Routine.name; registers; detail }
        :: !violations
  in
  let has_unresolved_calls =
    Seq.exists (fun c -> not (Psg.resolved psg c)) (Seq.init (Psg.call_count psg) Fun.id)
  in
  let frames = ref [] in
  let probes = ref [] in
  let probe_budget = ref max_observations in
  let live_at_entry routine =
    match (analysis.Analysis.summaries.(routine)).Summary.live_at_entry with
    | (_, live) :: _ -> live
    | [] -> Regset.empty
  in
  let live_at_exit routine exit_index =
    let cfg = Analysis.cfg analysis routine in
    let block = Spike_cfg.Cfg.block_of_insn cfg exit_index in
    match
      List.assoc_opt block (analysis.Analysis.summaries.(routine)).Summary.live_at_exit
    with
    | Some live -> live
    | None -> Regset.empty
  in
  let open_probe probe_routine expected probe_check =
    if !probe_budget > 0 then begin
      decr probe_budget;
      probes :=
        { probe_routine; probe_window = fresh_window (); expected; probe_check }
        :: !probes
    end
  in
  let close_frame state frame =
    let routine = frame.frame_routine in
    let c = analysis.Analysis.call_classes.(routine) in
    let w = frame.window in
    (* Reads before writes must be declared call-used.  Callee-saved
       registers are excused: the §3.4 save/restore idiom reads them
       transparently at any depth of the call tree (their values are
       checked below instead). *)
    report "call-used" routine
      (Regset.diff w.rbw
         (Regset.union c.Summary.used Calling_standard.callee_saved))
      "read before write not in call-used";
    (* Writes outside call-killed must have restored the entry value. *)
    let unrestored =
      Regset.filter
        (fun r -> Machine.reg state r <> frame.entry_values.(r))
        (Regset.diff w.written c.Summary.killed)
    in
    report "call-killed" routine unrestored "written, not killed, value not restored";
    if not has_unresolved_calls then
      report "call-defined" routine
        (Regset.diff c.Summary.defined w.written)
        "declared call-defined but never written"
  in
  let snapshot state = Array.init Reg.count (fun r -> Machine.reg state r) in
  let observer state event =
    match event with
    | Machine.Executed { insn; _ } ->
        List.iter (fun f -> observe_insn f.window insn) !frames;
        List.iter (fun p -> observe_insn p.probe_window insn) !probes
    | Machine.Entered { routine } ->
        frames :=
          {
            frame_routine = routine;
            window = fresh_window ();
            entry_values = snapshot state;
          }
          :: !frames;
        open_probe routine (live_at_entry routine) "live-at-entry"
    | Machine.Exited { routine; exit_index } -> (
        (match !frames with
        | frame :: rest ->
            assert (frame.frame_routine = routine);
            close_frame state frame;
            frames := rest
        | [] -> () (* main returning: it was never Entered *));
        open_probe routine (live_at_exit routine exit_index) "live-at-exit")
  in
  let outcome = Machine.execute ?fuel ~observer program in
  (match outcome with
  | Machine.Halted _ ->
      List.iter
        (fun p ->
          report p.probe_check p.probe_routine
            (Regset.diff p.probe_window.rbw
               (Regset.union p.expected Calling_standard.callee_saved))
            "read before write after this point, not in live set")
        !probes
  | Machine.Trapped _ -> ());
  (outcome, List.rev !violations)
