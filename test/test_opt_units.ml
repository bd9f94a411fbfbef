(* Optimizer internals: routine surgery (deletion with label remapping,
   register renaming), summary-driven liveness, and the cost model. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_core
open Spike_opt
open Test_helpers

(* --- Rewrite -------------------------------------------------------------- *)

let test_delete_remaps_labels () =
  let r =
    routine "f"
      [
        (None, li r1 1);
        (Some "mid", li r2 2);
        (None, li r3 3);
        (Some "tail", use r3);
        (None, ret);
      ]
  in
  (* Delete the instruction "mid" points at and the one before "tail". *)
  let r' = Rewrite.delete_instructions r [ 1; 2 ] in
  Alcotest.(check int) "three left" 3 (Routine.instruction_count r');
  (* "mid" moves to the next survivor. *)
  Alcotest.(check (option int)) "mid remapped" (Some 1) (Routine.label_index r' "mid");
  Alcotest.(check (option int)) "tail remapped" (Some 1) (Routine.label_index r' "tail");
  Alcotest.(check (option int)) "entry unchanged" (Some 0)
    (Routine.label_index r' "f$entry");
  Alcotest.(check (list string)) "no validation problems" []
    (Validate.check_routine r')

let test_delete_rejects_terminators () =
  let r = routine "f" [ (None, li r1 1); (None, ret) ] in
  Alcotest.check_raises "refuses ret"
    (Invalid_argument "Rewrite.delete_instructions: ret is a terminator") (fun () ->
      ignore (Rewrite.delete_instructions r [ 1 ]));
  Alcotest.check_raises "bounds" (Invalid_argument "Rewrite.delete_instructions: index 9")
    (fun () -> ignore (Rewrite.delete_instructions r [ 9 ]))

let test_delete_duplicates_ok () =
  let r = routine "f" [ (None, li r1 1); (None, li r2 2); (None, ret) ] in
  let r' = Rewrite.delete_instructions r [ 0; 0; 0 ] in
  Alcotest.(check int) "deleted once" 2 (Routine.instruction_count r')

let test_rename () =
  let r =
    routine "f"
      [
        (None, li Reg.s0 1);
        (None, Insn.Binop { op = Insn.Add; dst = Reg.s0; src1 = Reg.s0; src2 = Insn.Reg r1 });
        (None, store Reg.s0 ~base:Reg.sp ~offset:0);
        (None, load Reg.s0 ~base:Reg.sp ~offset:0);
        (None, ret);
      ]
  in
  let r' = Rewrite.rename_register r ~from_reg:Reg.s0 ~to_reg:Reg.t5 ~except:[ 2; 3 ] in
  let occurrences reg =
    Array.fold_left
      (fun n insn ->
        if Regset.mem reg (Regset.union (Insn.defs insn) (Insn.uses insn)) then n + 1
        else n)
      0 r'.Routine.insns
  in
  Alcotest.(check int) "s0 remains in excepted" 2 (occurrences Reg.s0);
  Alcotest.(check int) "t5 in renamed" 2 (occurrences Reg.t5)

(* --- Liveness -------------------------------------------------------------- *)

let test_liveness_across_call () =
  (* t3 live across the call in keeper, nothing extra in other. *)
  let callee = routine "callee" [ (None, li r2 1); (None, ret) ] in
  let keeper =
    routine "keeper"
      [
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -16 });
        (None, store Reg.ra ~base:Reg.sp ~offset:0);
        (None, li Reg.t3 7);
        (None, call "callee");
        (None, use Reg.t3);
        (None, load Reg.ra ~base:Reg.sp ~offset:0);
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "keeper"); (None, ret) ] in
  let p = program ~main:"main" [ main; keeper; callee ] in
  let analysis = Analysis.run p in
  let liveness = Liveness.compute analysis in
  let keeper_idx = Option.get (Program.find_index p "keeper") in
  let call_block, _ =
    List.hd (Spike_cfg.Cfg.call_sites (Analysis.cfg analysis keeper_idx))
  in
  let across = Liveness.live_across_call liveness ~routine:keeper_idx ~block:call_block in
  Alcotest.(check bool) "t3 live across" true (Regset.mem Reg.t3 across);
  Alcotest.(check bool) "t4 not live across" false (Regset.mem Reg.t4 across);
  (* [li t3, 7] is the call block's last instruction before the call: what
     is live after it is what is live before the call. *)
  let t3_def =
    let keeper = Program.get p keeper_idx in
    Option.get (Array.find_index (fun i -> i = li Reg.t3 7) keeper.Routine.insns)
  in
  Alcotest.(check int) "the def ends the call block's body"
    (Spike_cfg.Cfg.last (Analysis.cfg analysis keeper_idx) call_block - 1)
    t3_def;
  let after_def =
    Liveness.live_before_call liveness ~routine:keeper_idx ~block:call_block across
  in
  Alcotest.(check bool) "t3 live after its def" true (Regset.mem Reg.t3 after_def);
  Alcotest.(check (list int)) "so the def is not dead" []
    (Dead_code.find_dead analysis liveness ~routine:keeper_idx);
  Alcotest.check_raises "live_across_call on non-call"
    (Invalid_argument "Liveness.live_across_call: block does not end in a call")
    (fun () ->
      let exit_block =
        List.hd (Spike_cfg.Cfg.exit_blocks (Analysis.cfg analysis keeper_idx))
      in
      ignore (Liveness.live_across_call liveness ~routine:keeper_idx ~block:exit_block));
  Alcotest.check_raises "live_before_call on non-call"
    (Invalid_argument "Liveness.live_before_call: block does not end in a call")
    (fun () ->
      let exit_block =
        List.hd (Spike_cfg.Cfg.exit_blocks (Analysis.cfg analysis keeper_idx))
      in
      ignore
        (Liveness.live_before_call liveness ~routine:keeper_idx ~block:exit_block
           Regset.empty))

(* --- Cost model ------------------------------------------------------------ *)

let test_cost_model () =
  Alcotest.(check int) "load" 2 (Cost_model.insn_cycles (load r1 ~base:Reg.sp ~offset:0));
  Alcotest.(check int) "store" 2
    (Cost_model.insn_cycles (store r1 ~base:Reg.sp ~offset:0));
  Alcotest.(check int) "call" 3 (Cost_model.insn_cycles (call "f"));
  Alcotest.(check int) "ret" 3 (Cost_model.insn_cycles ret);
  Alcotest.(check int) "alu" 1 (Cost_model.insn_cycles (li r1 0));
  let r = routine "f" [ (None, li r1 0); (None, load r2 ~base:Reg.sp ~offset:0); (None, ret) ] in
  Alcotest.(check int) "routine cycles weighted" (1 + (2 * 2) + (3 * 3))
    (Cost_model.routine_cycles ~counts:[| 1; 2; 3 |] r);
  let p = program ~main:"f" [ r ] in
  Alcotest.(check int) "program cycles, uniform" 6
    (Cost_model.program_cycles ~count:(fun ~routine:_ ~index:_ -> 1) p);
  Alcotest.(check bool) "improvement" true
    (Cost_model.improvement_percent ~before:200 ~after:150 = 25.0)

(* --- Dead code specifics ---------------------------------------------------- *)

let test_dead_code_keeps_stores_and_sp () =
  (* A store is never deleted even if its value looks dead; an sp def is
     never deleted either. *)
  let f =
    routine "f"
      [
        (None, li r1 1);
        (None, store r1 ~base:Reg.zero ~offset:8192);
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -16 });
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "f"); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let optimized, _ = Dead_code.eliminate ~rerun:Analysis.rerun (Analysis.run p) in
  let f' = Option.get (Program.find optimized "f") in
  let count pred = Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 f'.Routine.insns in
  Alcotest.(check int) "store kept" 1
    (count (function Insn.Store _ -> true | _ -> false));
  Alcotest.(check int) "sp defs kept" 2
    (count (function Insn.Lda { dst; _ } -> dst = Reg.sp | _ -> false));
  Alcotest.(check int) "feeding def kept" 1
    (count (function Insn.Li { dst; _ } -> dst = r1 | _ -> false))

let test_dead_code_cascades () =
  (* A chain of defs feeding only each other dies entirely. *)
  let f =
    routine "f"
      [
        (None, li r1 1);
        (None, Insn.Mov { dst = r2; src = r1 });
        (None, Insn.Mov { dst = r3; src = r2 });
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "f"); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let optimized, removed = Dead_code.eliminate ~rerun:Analysis.rerun (Analysis.run p) in
  Alcotest.(check int) "all three removed" 3 removed;
  let f' = Option.get (Program.find optimized "f") in
  Alcotest.(check int) "only ret left" 1 (Routine.instruction_count f')

(* [eliminate] (Dead_code's or the Round_dce oracle's) with a rerun
   counter. *)
let counting_reruns eliminate p =
  let reruns = ref 0 in
  let rerun a program =
    incr reruns;
    Analysis.rerun a program
  in
  let optimized, removed = eliminate ~rerun (Analysis.run p) in
  (optimized, removed, !reruns)

let test_dead_code_chain_across_blocks () =
  (* Each link of the chain sits in its own block: the cascade converges
     inside the routine, so one rerun confirms it, where one round per
     rerun needs three. *)
  let f =
    routine "f"
      [
        (None, li r1 1);
        (None, br "b1");
        (Some "b1", mov ~src:r1 ~dst:r2);
        (None, br "b2");
        (Some "b2", mov ~src:r2 ~dst:r3);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "f"); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let cfg = Spike_cfg.Cfg.build f in
  Alcotest.(check (list int)) "three blocks" [ 0; 1; 2 ]
    (List.map (Spike_cfg.Cfg.block_of_insn cfg) [ 0; 2; 4 ]);
  let optimized, removed, reruns = counting_reruns Dead_code.eliminate p in
  Alcotest.(check int) "all three removed" 3 removed;
  Alcotest.(check int) "one rerun" 1 reruns;
  let f' = Option.get (Program.find optimized "f") in
  Alcotest.(check int) "only the branches and ret left" 3 (Routine.instruction_count f');
  let by_rounds, removed', reruns' = counting_reruns Round_dce.eliminate p in
  Alcotest.(check int) "round by round: three reruns" 3 reruns';
  Alcotest.(check int) "round by round: same count" removed removed';
  Alcotest.(check string) "round by round: same program"
    (Spike_asm.Printer.to_string by_rounds) (Spike_asm.Printer.to_string optimized)

let test_dead_code_keeps_loop_carried () =
  (* [r1 = r1 + 1] feeds only itself around the loop once the read after
     the loop dies, so the routine's liveness is re-solved.  Iterated
     dead-code elimination keeps it (its def is live at the loop head); a
     faint-variable elimination would delete it. *)
  let bump = Insn.Binop { op = Insn.Add; dst = r1; src1 = r1; src2 = Insn.Imm 1 } in
  let f =
    routine "f"
      [
        (None, li r2 10);
        (Some "loop", bump);
        (None, Insn.Binop { op = Insn.Sub; dst = r2; src1 = r2; src2 = Insn.Imm 1 });
        (None, bne r2 "loop");
        (None, mov ~src:r1 ~dst:r3);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "f"); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let optimized, removed, _ = counting_reruns Dead_code.eliminate p in
  Alcotest.(check int) "only the read after the loop removed" 1 removed;
  let f' = Option.get (Program.find optimized "f") in
  Alcotest.(check bool) "the increment survives" true
    (Array.exists (fun i -> i = bump) f'.Routine.insns)

let test_dead_code_cascade_across_routines () =
  (* The callee's read of a0 dies in the first round; only the rerun
     after it shows that the caller's def of a0 is dead too. *)
  let callee = routine "callee" [ (None, mov ~src:Reg.a0 ~dst:r3); (None, ret) ] in
  let main = routine "main" [ (None, li Reg.a0 1); (None, call "callee"); (None, ret) ] in
  let p = program ~main:"main" [ main; callee ] in
  let optimized, removed, reruns = counting_reruns Dead_code.eliminate p in
  Alcotest.(check int) "both removed" 2 removed;
  Alcotest.(check int) "a second round" 2 reruns;
  Alcotest.(check int) "main keeps its call and ret" 2
    (Routine.instruction_count (Option.get (Program.find optimized "main")))

let () =
  Alcotest.run "opt-units"
    [
      ( "rewrite",
        [
          Alcotest.test_case "delete remaps labels" `Quick test_delete_remaps_labels;
          Alcotest.test_case "delete rejects terminators" `Quick
            test_delete_rejects_terminators;
          Alcotest.test_case "duplicate indexes" `Quick test_delete_duplicates_ok;
          Alcotest.test_case "rename with exceptions" `Quick test_rename;
        ] );
      ( "liveness",
        [ Alcotest.test_case "across calls" `Quick test_liveness_across_call ] );
      ("cost", [ Alcotest.test_case "model" `Quick test_cost_model ]);
      ( "dead-code",
        [
          Alcotest.test_case "effects preserved" `Quick test_dead_code_keeps_stores_and_sp;
          Alcotest.test_case "cascades" `Quick test_dead_code_cascades;
          Alcotest.test_case "chain across three blocks" `Quick
            test_dead_code_chain_across_blocks;
          Alcotest.test_case "loop-carried self-use survives" `Quick
            test_dead_code_keeps_loop_carried;
          Alcotest.test_case "cascade across routines" `Quick
            test_dead_code_cascade_across_routines;
        ] );
    ]
