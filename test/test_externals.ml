(* §3.5 external summaries: the compiler/linker channel for exact
   information about code outside the image.  Covers the summary-file
   syntax, the precision improvement over the calling-standard assumption,
   and agreement with the reference under externals. *)

open Spike_support
open Spike_isa
open Spike_core
open Test_helpers

let memcpyish =
  {
    Psg.x_used = rs [ Reg.a0; Reg.a1; Reg.a2 ];
    x_defined = rs [ Reg.v0 ];
    x_killed = rs [ Reg.v0; Reg.t0; Reg.t1; Reg.ra ];
  }

let externals name = if String.equal name "memcpy" then Some memcpyish else None

(* --- Summary files ------------------------------------------------------- *)

let test_summaries_parse () =
  let text =
    "# libc summaries\n.summary memcpy\n  used = {a0, a1, a2}\n  defined = {v0}\n\
     \  killed = {v0, t0, t1, ra}\n.end\n.summary pure\n  used = {}\n  defined = \
     {}\n  killed = {}\n.end\n"
  in
  let entries = Spike_asm.Summaries.of_string text in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  (match Spike_asm.Summaries.lookup entries "memcpy" with
  | Some c ->
      check_regset "used" memcpyish.Psg.x_used c.Psg.x_used;
      check_regset "defined" memcpyish.Psg.x_defined c.Psg.x_defined;
      check_regset "killed" memcpyish.Psg.x_killed c.Psg.x_killed
  | None -> Alcotest.fail "memcpy missing");
  (match Spike_asm.Summaries.lookup entries "pure" with
  | Some c -> check_regset "empty sets" Regset.empty c.Psg.x_used
  | None -> Alcotest.fail "pure missing");
  Alcotest.(check (option bool)) "unlisted" None
    (Option.map (fun _ -> true) (Spike_asm.Summaries.lookup entries "ghost"));
  (* Round trip. *)
  let again = Spike_asm.Summaries.of_string (Spike_asm.Summaries.to_string entries) in
  Alcotest.(check int) "roundtrip count" 2 (List.length again);
  List.iter2
    (fun (n1, c1) (n2, (c2 : Psg.external_class)) ->
      Alcotest.(check string) "name" n1 n2;
      check_regset "rt used" c1.Psg.x_used c2.Psg.x_used;
      check_regset "rt defined" c1.Psg.x_defined c2.Psg.x_defined;
      check_regset "rt killed" c1.Psg.x_killed c2.Psg.x_killed)
    entries again

let test_summaries_errors () =
  let expect_error ~line text =
    match Spike_asm.Summaries.of_string text with
    | _ -> Alcotest.failf "expected error at line %d" line
    | exception Spike_asm.Summaries.Error e -> Alcotest.(check int) "line" line e.line
  in
  expect_error ~line:1 "garbage";
  expect_error ~line:2 ".summary f\n  bogus = {}\n.end\n";
  expect_error ~line:2 ".summary f\n  used = {xyzzy}\n.end\n";
  expect_error ~line:3 ".summary f\n  used = {}\n.end\n";
  (* missing defined/killed *)
  expect_error ~line:0 ".summary f\n  used = {}\n"

(* --- Analysis precision ---------------------------------------------------- *)

(* main defines a0 and a3 then calls memcpy (external).  Under the standard
   assumption both defs are argument registers, hence live; with the
   summary, a3 is not used by memcpy and its def is dead. *)
let caller_program () =
  program ~main:"main"
    [
      routine "main"
        [
          (None, li Reg.a0 1);
          (None, li Reg.a3 2);
          (None, call "memcpy");
          (None, use Reg.v0);
          (None, ret);
        ];
    ]

let test_precision_over_assumption () =
  let p = caller_program () in
  let with_ext = Analysis.run ~externals p in
  let without = Analysis.run p in
  let site_with = Analysis.site_class with_ext 0 in
  let site_without = Analysis.site_class without 0 in
  Alcotest.(check bool) "a3 assumed used without summary" true
    (Regset.mem Reg.a3 site_without.Summary.used);
  Alcotest.(check bool) "a3 known unused with summary" false
    (Regset.mem Reg.a3 site_with.Summary.used);
  (* And the optimizer exploits it. *)
  let optimized, _ = Spike_opt.Opt.run with_ext in
  let main_r = Option.get (Spike_ir.Program.find optimized "main") in
  let has_a3_def =
    Array.exists
      (fun insn -> match insn with Insn.Li { dst; _ } -> dst = Reg.a3 | _ -> false)
      main_r.Spike_ir.Routine.insns
  in
  Alcotest.(check bool) "dead a3 def removed under summary" false has_a3_def;
  let optimized_without, _ = Spike_opt.Opt.run (Analysis.run p) in
  let main_r = Option.get (Spike_ir.Program.find optimized_without "main") in
  let has_a3_def =
    Array.exists
      (fun insn -> match insn with Insn.Li { dst; _ } -> dst = Reg.a3 | _ -> false)
      main_r.Spike_ir.Routine.insns
  in
  Alcotest.(check bool) "a3 def kept under the assumption" true has_a3_def

let test_external_must_def_kills_liveness () =
  (* v0 is must-defined by memcpy, so a pre-call def of v0 feeding only the
     post-call use is dead with the summary. *)
  let p =
    program ~main:"main"
      [
        routine "main"
          [
            (None, li Reg.v0 1);
            (* dead: memcpy must-defines v0 *)
            (None, li Reg.a0 2);
            (None, call "memcpy");
            (None, use Reg.v0);
            (None, ret);
          ];
      ]
  in
  let optimized, _ = Spike_opt.Opt.run (Analysis.run ~externals p) in
  let main_r = Option.get (Spike_ir.Program.find optimized "main") in
  Alcotest.(check bool) "pre-call v0 def removed" false
    (Array.exists
       (fun insn -> match insn with Insn.Li { dst; imm } -> dst = Reg.v0 && imm = 1 | _ -> false)
       main_r.Spike_ir.Routine.insns)

let test_mixed_targets () =
  (* An indirect call that may hit a routine of the image or memcpy. *)
  let local = routine "local" [ (None, use Reg.a4); (None, li Reg.v0 3); (None, ret) ] in
  let main =
    routine "main"
      [
        (None, li Reg.pv 0);
        (None, call_indirect ~targets:[ "local"; "memcpy" ] Reg.pv);
        (None, use Reg.v0);
        (None, ret);
      ]
  in
  let p = program ~main:"main" [ main; local ] in
  let analysis = Analysis.run ~externals p in
  let site = Analysis.site_class analysis 0 in
  Alcotest.(check bool) "a4 used (local)" true (Regset.mem Reg.a4 site.Summary.used);
  Alcotest.(check bool) "a0 used (memcpy)" true (Regset.mem Reg.a0 site.Summary.used);
  Alcotest.(check bool) "v0 must-defined (both)" true
    (Regset.mem Reg.v0 site.Summary.defined);
  (* Without externals the same call is fully unknown. *)
  let plain = Analysis.run p in
  let site_plain = Analysis.site_class plain 0 in
  check_regset "falls back to the assumption" Calling_standard.unknown_call_used
    site_plain.Summary.used

let test_reference_agreement_with_externals () =
  let p = caller_program () in
  let analysis = Analysis.run ~externals p in
  let reference = Spike_reference.Reference.run ~externals p in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = reference.Spike_reference.Reference.call_classes.(r) in
      check_regset "used" d.Summary.used c.Summary.used;
      check_regset "defined" d.Summary.defined c.Summary.defined;
      check_regset "killed" d.Summary.killed c.Summary.killed;
      (match (analysis.Analysis.summaries.(r)).Summary.live_at_entry with
      | (_, live) :: _ ->
          check_regset "live-at-entry"
            reference.Spike_reference.Reference.live_at_entry.(r)
            live
      | [] -> ()))
    analysis.Analysis.call_classes

(* The hardwired zeros may be named in a summary file.  They are dropped
   — [f31] could not even be held by a register set — so the file analyses
   exactly like the same file without them. *)
let test_hardwired_zeros_dropped () =
  let with_zeros =
    ".summary memcpy\n  used = {a0, zero, a1, a2, f31}\n  defined = {v0, f31}\n\
     \  killed = {zero, v0, t0, t1, ra, f31}\n.end\n"
  and without =
    ".summary memcpy\n  used = {a0, a1, a2}\n  defined = {v0}\n\
     \  killed = {v0, t0, t1, ra}\n.end\n"
  in
  let lookup text = Spike_asm.Summaries.(lookup (of_string text)) in
  let parsed = Option.get (lookup with_zeros "memcpy") in
  check_regset "used" memcpyish.Psg.x_used parsed.Psg.x_used;
  check_regset "defined" memcpyish.Psg.x_defined parsed.Psg.x_defined;
  check_regset "killed" memcpyish.Psg.x_killed parsed.Psg.x_killed;
  let render (a : Analysis.t) =
    Format.asprintf "%a"
      (fun ppf -> Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s))
      a.Analysis.summaries
  in
  let p = caller_program () in
  Alcotest.(check string) "same summaries"
    (render (Analysis.run ~externals:(lookup without) p))
    (render (Analysis.run ~externals:(lookup with_zeros) p))

let () =
  Alcotest.run "externals"
    [
      ( "summary-files",
        [
          Alcotest.test_case "parse + roundtrip" `Quick test_summaries_parse;
          Alcotest.test_case "errors" `Quick test_summaries_errors;
          Alcotest.test_case "hardwired zeros dropped" `Quick
            test_hardwired_zeros_dropped;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "precision over assumption" `Quick
            test_precision_over_assumption;
          Alcotest.test_case "must-def kills liveness" `Quick
            test_external_must_def_kills_liveness;
          Alcotest.test_case "mixed targets" `Quick test_mixed_targets;
          Alcotest.test_case "reference agreement" `Quick
            test_reference_agreement_with_externals;
        ] );
    ]
