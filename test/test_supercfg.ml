(* The whole-program supergraph baseline: arc accounting (call and return
   arcs) and context-insensitive liveness, including its characteristic
   imprecision relative to the PSG. *)

open Spike_support
open Spike_isa
open Spike_core
open Spike_supercfg
open Test_helpers

let test_arc_accounting () =
  (* main calls f twice; f has two exits.  Each resolved call adds one call
     arc and one return arc per callee exit. *)
  let f =
    routine "f"
      [
        (None, beq r1 "second");
        (None, li r2 1);
        (None, ret);
        (Some "second", li r3 2);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "f"); (None, call "f"); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let analysis = Analysis.run p in
  let super = Supercfg.build p (cfgs_of analysis) in
  Alcotest.(check int) "call arcs" 2 (Supercfg.call_arc_count super);
  Alcotest.(check int) "return arcs" 4 (Supercfg.return_arc_count super);
  Alcotest.(check int) "blocks" 6 (Supercfg.block_count super);
  (* Unknown calls keep a plain fallthrough arc instead. *)
  let m2 =
    routine "m2" [ (None, li Reg.pv 0); (None, call_indirect Reg.pv); (None, ret) ]
  in
  let p2 = program ~main:"m2" [ m2 ] in
  let analysis2 = Analysis.run p2 in
  let super2 = Supercfg.build p2 (cfgs_of analysis2) in
  Alcotest.(check int) "no call arcs for unknown" 0 (Supercfg.call_arc_count super2);
  Alcotest.(check int) "no return arcs for unknown" 0 (Supercfg.return_arc_count super2)

let test_liveness_through_calls () =
  (* R0 defined in main before the call, used after: it must be live
     through the callee's blocks on the supergraph. *)
  let p = figure2_program () in
  let analysis = Analysis.run p in
  let super = Supercfg.build p (cfgs_of analysis) in
  let live = Supercfg.liveness super (defuses_of analysis) in
  let p2 = Option.get (Spike_ir.Program.find_index p "P2") in
  let entry_block =
    Spike_cfg.Cfg.entry_block (Analysis.cfg analysis p2) 0
  in
  let at_entry = Supercfg.live_in live ~routine:p2 ~block:entry_block in
  Alcotest.(check bool) "R0 live at P2 entry" true (Regset.mem r0 at_entry);
  Alcotest.(check bool) "R1 live at P2 entry" true (Regset.mem r1 at_entry)

let test_context_insensitivity () =
  (* Two callers: one keeps t3 live across the call, the other does not.
     The supergraph merges the return paths, so the callee's exit sees t3
     live even for the second caller; the PSG does not. *)
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
  let other =
    routine "other"
      [
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -16 });
        (None, store Reg.ra ~base:Reg.sp ~offset:0);
        (None, call "callee");
        (None, load Reg.ra ~base:Reg.sp ~offset:0);
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "keeper"); (None, call "other"); (None, ret) ] in
  let p = program ~main:"main" [ main; keeper; other; callee ] in
  let analysis = Analysis.run p in
  let super = Supercfg.build p (cfgs_of analysis) in
  let live = Supercfg.liveness super (defuses_of analysis) in
  let callee_idx = Option.get (Spike_ir.Program.find_index p "callee") in
  let exit_block =
    List.hd (Spike_cfg.Cfg.exit_blocks (Analysis.cfg analysis callee_idx))
  in
  let super_exit = Supercfg.live_out live ~routine:callee_idx ~block:exit_block in
  let psg_exit =
    List.assoc exit_block
      (analysis.Analysis.summaries.(callee_idx)).Summary.live_at_exit
  in
  Alcotest.(check bool) "supergraph sees t3 live (merged contexts)" true
    (Regset.mem Reg.t3 super_exit);
  Alcotest.(check bool) "psg also reports t3 (some caller uses it)" true
    (Regset.mem Reg.t3 psg_exit);
  (* The observable difference: liveness flows backward out of the merged
     callee exit, so before `other`'s call the supergraph claims t3 live
     (it leaked from keeper's continuation); valid-paths liveness does
     not. *)
  let other_idx = Option.get (Spike_ir.Program.find_index p "other") in
  let other_cfg = Analysis.cfg analysis other_idx in
  let call_block, _ = List.hd (Spike_cfg.Cfg.call_sites other_cfg) in
  let super_before_call = Supercfg.live_in live ~routine:other_idx ~block:call_block in
  Alcotest.(check bool) "supergraph leaks t3 into other" true
    (Regset.mem Reg.t3 super_before_call);
  let liveness = Spike_opt.Liveness.compute analysis in
  let psg_before_call =
    Spike_opt.Liveness.live_in liveness ~routine:other_idx ~block:call_block
  in
  Alcotest.(check bool) "valid-paths liveness does not" false
    (Regset.mem Reg.t3 psg_before_call)

let () =
  Alcotest.run "supercfg"
    [
      ( "structure",
        [ Alcotest.test_case "arc accounting" `Quick test_arc_accounting ] );
      ( "liveness",
        [
          Alcotest.test_case "through calls" `Quick test_liveness_through_calls;
          Alcotest.test_case "context insensitivity" `Quick test_context_insensitivity;
        ] );
    ]
