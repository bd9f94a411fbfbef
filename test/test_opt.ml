(* The Figure-1 optimizations: each motivating scenario from the paper's
   introduction, plus semantics preservation on random whole programs. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_core
open Spike_opt
open Test_helpers

let optimize p =
  let program, report = Opt.run (Analysis.run p) in
  (match Validate.check program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "optimized program invalid: %s" (String.concat "; " e));
  (program, report)

let count_insns p name pred =
  match Program.find p name with
  | None -> Alcotest.failf "routine %s missing" name
  | Some (r : Routine.t) ->
      Array.fold_left (fun n insn -> if pred insn then n + 1 else n) 0 r.Routine.insns

(* Figure 1(a): a value computed for the return is dead because no caller
   uses it. *)
let test_fig1a_dead_return_value () =
  let f =
    routine "f" [ (None, li Reg.t5 42) (* would-be return value *); (None, ret) ]
  in
  let main = routine "main" [ (None, call "f"); (None, li r0 0); (None, ret) ] in
  let p = program ~main:"main" [ main; f ] in
  let optimized, report = optimize p in
  Alcotest.(check int) "dead def deleted" 0
    (count_insns optimized "f" (fun i -> i = li Reg.t5 42));
  if report.Opt.dead_instructions_removed < 1 then
    Alcotest.fail "expected at least one dead instruction removed"

(* Figure 1(b): an argument the callee never reads is dead at the call
   site. *)
let test_fig1b_dead_argument () =
  let callee =
    routine "callee"
      [ (None, Insn.Binop { op = Insn.Add; dst = r0; src1 = Reg.a1; src2 = Insn.Imm 1 });
        (None, ret) ]
  in
  let main =
    routine "main"
      [
        (None, li Reg.a0 1);
        (* dead: callee only reads a1 *)
        (None, li Reg.a1 2);
        (None, call "callee");
        (None, use r0);
        (None, ret);
      ]
  in
  let p = program ~main:"main" [ main; callee ] in
  let optimized, _ = optimize p in
  Alcotest.(check int) "a0 def deleted" 0
    (count_insns optimized "main" (fun i -> i = li Reg.a0 1));
  Alcotest.(check int) "a1 def kept" 1
    (count_insns optimized "main" (fun i -> i = li Reg.a1 2))

(* A non-leaf routine with the standard ra discipline. *)
let nonleaf name body =
  routine name
    ([ (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -16 });
       (None, store Reg.ra ~base:Reg.sp ~offset:0) ]
    @ body
    @ [ (None, load Reg.ra ~base:Reg.sp ~offset:0);
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret) ])

(* Figure 1(c): a spill around a call the summary proves unnecessary. *)
let test_fig1c_spill_removal () =
  let leaf = routine "leaf" [ (None, li Reg.t1 9); (None, ret) ] in
  let g =
    nonleaf "g"
      [
        (None, li Reg.t0 7);
        (None, store Reg.t0 ~base:Reg.sp ~offset:8);
        (* spill *)
        (None, call "leaf");
        (None, load Reg.t0 ~base:Reg.sp ~offset:8);
        (* reload *)
        (None, store Reg.t0 ~base:Reg.zero ~offset:8192);
        (* observable use *)
      ]
  in
  let main = routine "main" [ (None, call "g"); (None, ret) ] in
  let p = program ~main:"main" [ main; g; leaf ] in
  let analysis = Analysis.run p in
  let removals = Spill.find analysis in
  Alcotest.(check int) "one spill pair found" 1 (List.length removals);
  let optimized, report = optimize p in
  Alcotest.(check int) "spills removed" 1 report.Opt.spills_removed;
  Alcotest.(check int) "spill store gone" 1
    (count_insns optimized "g" (fun i ->
         match i with Insn.Store { base; _ } -> base = Reg.sp | _ -> false));
  (* Behaviour unchanged: the observable store writes 7. *)
  let before = Spike_interp.Machine.execute p in
  let after = Spike_interp.Machine.execute optimized in
  Alcotest.(check bool) "same outcome" true (before = after)

(* Figure 1(d): a value parked in a callee-saved register moves to a
   caller-saved one the call does not kill; save/restore disappears. *)
let test_fig1d_save_restore () =
  let leaf = routine "leaf" [ (None, li Reg.t1 9); (None, ret) ] in
  let h =
    routine "h"
      [
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -24 });
        (None, store Reg.s0 ~base:Reg.sp ~offset:0);
        (* save *)
        (None, store Reg.ra ~base:Reg.sp ~offset:8);
        (None, li Reg.s0 5);
        (None, call "leaf");
        (None, store Reg.s0 ~base:Reg.zero ~offset:8192);
        (* s0 live across the call *)
        (None, load Reg.s0 ~base:Reg.sp ~offset:0);
        (* restore *)
        (None, load Reg.ra ~base:Reg.sp ~offset:8);
        (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 24 });
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "h"); (None, ret) ] in
  let p = program ~main:"main" [ main; h; leaf ] in
  let optimized, report = optimize p in
  if report.Opt.save_restores_rewritten < 1 then
    Alcotest.fail "expected a save/restore reallocation";
  Alcotest.(check int) "no s0 occurrences left" 0
    (count_insns optimized "h" (fun i ->
         Regset.mem Reg.s0 (Regset.union (Insn.defs i) (Insn.uses i))));
  let before = Spike_interp.Machine.execute p in
  let after = Spike_interp.Machine.execute optimized in
  Alcotest.(check bool) "same outcome" true (before = after)

(* Whole-program semantics preservation on random workloads. *)
let test_semantics_preserved () =
  List.iter
    (fun seed ->
      let p =
        Spike_synth.Generator.generate { Spike_synth.Params.default with seed }
      in
      let optimized, report = optimize p in
      if report.Opt.instructions_after > report.Opt.instructions_before then
        Alcotest.fail "optimization grew the program";
      match
        (Spike_interp.Machine.execute ~fuel:3_000_000 p,
         Spike_interp.Machine.execute ~fuel:3_000_000 optimized)
      with
      | Spike_interp.Machine.Halted a, Spike_interp.Machine.Halted b ->
          Alcotest.(check int) (Printf.sprintf "seed %d exit status" seed) a b
      | _, _ -> Alcotest.failf "seed %d: execution did not halt" seed)
    (List.init 12 Fun.id)

(* The optimized program's analysis must still be sound. *)
let test_optimized_soundness () =
  List.iter
    (fun seed ->
      let p =
        Spike_synth.Generator.generate { Spike_synth.Params.default with seed }
      in
      let optimized, _ = optimize p in
      let analysis = Analysis.run optimized in
      let _, violations = Spike_interp.Oracle.check ~fuel:3_000_000 analysis in
      match violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "seed %d: %s" seed
            (Format.asprintf "%a" Spike_interp.Oracle.pp_violation v))
    [ 3; 17; 23 ]

(* --- Warm reruns ------------------------------------------------------------- *)

let render_summaries (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf -> Array.iter (Format.fprintf ppf "%a@." Summary.pp))
    a.Analysis.summaries

let dump_psg (a : Analysis.t) = Format.asprintf "%a" Psg.pp a.Analysis.psg

let class_equal (x : Summary.call_class) (y : Summary.call_class) =
  Regset.equal x.used y.used && Regset.equal x.defined y.defined
  && Regset.equal x.killed y.killed

(* A rerun must be bit-identical to a cold analysis of the same program. *)
let check_equals_cold tag (a : Analysis.t) =
  let cold = Cold_opt.rerun a a.Analysis.program in
  Alcotest.(check string) (tag ^ ": PSG") (dump_psg cold) (dump_psg a);
  Alcotest.(check bool)
    (tag ^ ": call classes") true
    (Array.for_all2 class_equal cold.Analysis.call_classes a.Analysis.call_classes);
  Alcotest.(check string) (tag ^ ": summaries") (render_summaries cold) (render_summaries a)

(* Routines of [program] physically shared with [old] at the same index. *)
let unchanged_routines old program =
  if Program.routine_count old <> Program.routine_count program then 0
  else
    Seq.fold_left
      (fun n r -> if Program.get old r == Program.get program r then n + 1 else n)
      0
      (Seq.init (Program.routine_count program) Fun.id)

let printed = Spike_asm.Printer.to_string

(* Opt.run's pass sequence, one rerun at a time, each checked against a
   cold run; then Opt.run itself against the cold-rerun oracle. *)
let check_warm_reruns tag (a0 : Analysis.t) =
  let reruns = ref 0 and rebuilt = ref 0 and reused = ref 0 in
  let rerun (a : Analysis.t) program =
    incr reruns;
    let tag = Printf.sprintf "%s, rerun %d" tag !reruns in
    let warm = Analysis.rerun a program in
    let n = Program.routine_count program in
    let unchanged = unchanged_routines a.Analysis.program program in
    (* Without captured artifacts only a no-op rerun reuses anything. *)
    let expected = if unchanged = n || a.Analysis.warm_capture <> None then unchanged else 0 in
    Alcotest.(check int) (tag ^ ": reused routines") expected warm.Analysis.reused_routines;
    check_equals_cold tag warm;
    rebuilt := !rebuilt + n - warm.Analysis.reused_routines;
    reused := !reused + warm.Analysis.reused_routines;
    warm
  in
  let program, _ = Spill.apply a0 in
  let a = rerun a0 program in
  let program, _ = Save_restore.apply a in
  let a = rerun a program in
  let stepped, _ = Dead_code.eliminate ~rerun a in
  if !reused = 0 then Alcotest.failf "%s: no rerun reused a routine" tag;
  let optimized, report = Opt.run a0 in
  let oracle = printed (Cold_opt.optimize a0) in
  Alcotest.(check string) (tag ^ ": stepped = cold-rerun oracle") oracle (printed stepped);
  Alcotest.(check string) (tag ^ ": Opt.run = cold-rerun oracle") oracle (printed optimized);
  Alcotest.(check int) (tag ^ ": reanalyses") !reruns report.Opt.reanalyses;
  Alcotest.(check int) (tag ^ ": routines rebuilt") !rebuilt report.Opt.routines_rebuilt

let small_vortex seed =
  let row = Option.get (Spike_synth.Calibrate.find "vortex") in
  let p = Spike_synth.Calibrate.params_of ~scale:0.04 row in
  Spike_synth.Generator.generate
    { p with Spike_synth.Params.seed; guard_calls = true; unknown_jump_prob = 0.0 }

let test_warm_rerun_equals_cold () =
  let programs =
    List.map
      (fun seed ->
        ( Printf.sprintf "synth %d" seed,
          Spike_synth.Generator.generate { Spike_synth.Params.default with seed } ))
      [ 1; 7; 23 ]
    @ [ ("vortex", small_vortex 1) ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun jobs ->
          (* A plain run captures nothing, so its first rerun is cold; a
             captured one is warm from the first rerun on. *)
          check_warm_reruns (Printf.sprintf "%s, jobs %d" name jobs) (Analysis.run ~jobs p);
          check_warm_reruns
            (Printf.sprintf "%s, jobs %d, captured" name jobs)
            (Analysis.run ~jobs ~capture:true p))
        [ 1; 4 ])
    programs

let lifted () =
  match Spike_obs.Metrics.find (Spike_obs.Metrics.snapshot ()) "warm.solutions.lifted" with
  | Some (Spike_obs.Metrics.Count n) -> n
  | _ -> 0

let test_cold_fallbacks () =
  let p = Spike_synth.Generator.generate { Spike_synth.Params.default with seed = 5 } in
  let routines = Program.routines p in
  let n = Array.length routines in
  let main = Program.main p in
  let other = if routines.(0).Routine.name = main then 1 else 0 in
  let remake ?(main = main) routines = Program.make ~main (Array.to_list routines) in
  (* Re-allocating a routine's instruction array keeps it structurally
     equal but breaks physical identity. *)
  let fresh r = { r with Routine.insns = Array.copy r.Routine.insns } in
  let with_fresh k = remake (Array.mapi (fun i r -> if i = k then fresh r else r) routines) in
  let captured = Analysis.run ~jobs:1 ~capture:true p in
  let cold_case name (a : Analysis.t) program =
    let warm = Analysis.rerun a program in
    Alcotest.(check int) (name ^ ": reused routines") 0 warm.Analysis.reused_routines;
    check_equals_cold name warm
  in
  cold_case "uncaptured input" (Analysis.run ~jobs:1 p) (with_fresh other);
  cold_case "routine added" captured
    (remake
       (Array.append routines
          [| routine "added$leaf" [ (None, li Reg.t0 1); (None, ret) ] |]));
  cold_case "routine renamed" captured
    (remake
       (Array.mapi
          (fun i r -> if i = other then { r with Routine.name = r.Routine.name ^ "$renamed" } else r)
          routines));
  cold_case "routines reordered" captured
    (remake (Array.init n (fun i -> routines.(n - 1 - i))));
  cold_case "main changed" captured (remake ~main:routines.(other).Routine.name routines);
  (* A structurally equal routine is rebuilt, and its solution is lifted
     from the donor: nothing is left to re-converge. *)
  Spike_obs.Metrics.enable ();
  let before = lifted () in
  let warm = Analysis.rerun captured (with_fresh other) in
  let lifts = lifted () - before in
  Spike_obs.Metrics.disable ();
  Alcotest.(check int) "fresh copy: reused routines" (n - 1) warm.Analysis.reused_routines;
  Alcotest.(check int) "fresh copy: lifted" 1 lifts;
  Alcotest.(check (pair int int))
    "fresh copy: no iterations" (0, 0)
    (warm.Analysis.phase1_iterations, warm.Analysis.phase2_iterations);
  check_equals_cold "fresh copy" warm;
  (* A rewrite that drops a call fails the lift; the callee, untouched
     itself, lost its only caller, so its exit must re-converge. *)
  let c = routine "c" [ (None, li Reg.t1 1); (None, ret) ] in
  let caller body = routine "a" ([ (None, li Reg.t0 1) ] @ body @ [ (None, use Reg.t0); (None, ret) ]) in
  let main_r = routine "main" [ (None, call "a"); (None, ret) ] in
  let before = Analysis.run ~jobs:1 ~capture:true (program ~main:"main" [ main_r; caller [ (None, call "c") ]; c ]) in
  let dropped =
    Analysis.rerun before (program ~main:"main" [ main_r; caller [ (None, Insn.Nop) ]; c ])
  in
  Alcotest.(check int) "call dropped: reused routines" 2 dropped.Analysis.reused_routines;
  check_equals_cold "call dropped" dropped;
  (* Nothing changed at all: the previous result is returned as is. *)
  let same = Analysis.rerun captured (remake routines) in
  Alcotest.(check bool) "no-op: PSG shared" true (same.Analysis.psg == captured.Analysis.psg);
  Alcotest.(check int) "no-op: reused routines" n same.Analysis.reused_routines;
  check_equals_cold "no-op" same

(* [stq f31, off(sp)] zeroes a stack slot.  f31 is outside the register-set
   universe, and both the callee-saved scan of an entry block and the
   spill search before a call test a store's source register directly, so
   such a store must be an ordinary instruction to both.  It is: the
   program analyses and optimises exactly like the one storing [zero]. *)
let fzero_program zero =
  Spike_asm.Parser.program_of_string
    (Printf.sprintf
       ".main main
        .routine main .exported
       \  lda sp, -16(sp)
       \  stq ra, 0(sp)
       \  stq %s, 8(sp)
       \  li a0, 4
       \  bsr ra, f
       \  ldq t0, 8(sp)
       \  addq v0, t0, v0
       \  stq %s, 8(sp)
       \  bsr ra, f
       \  ldq t1, 8(sp)
       \  addq v0, t1, v0
       \  ldq ra, 0(sp)
       \  lda sp, 16(sp)
       \  ret
        .end
        .routine f
       \  lda sp, -8(sp)
       \  stq %s, 0(sp)
       \  ldq t2, 0(sp)
       \  addq a0, t2, v0
       \  lda sp, 8(sp)
       \  ret
        .end
"
       zero zero zero)

let test_fzero_stores () =
  let p = fzero_program "f31" and p_zero = fzero_program "zero" in
  let a = Analysis.run p and a_zero = Analysis.run p_zero in
  Alcotest.(check string) "summaries as with zero" (render_summaries a_zero)
    (render_summaries a);
  Alcotest.(check int) "no spill found" 0 (List.length (Spill.find a));
  let optimized, _ = optimize p and optimized_zero, _ = optimize p_zero in
  (* The f31 listing with every [f31] spelled [zero]. *)
  let as_zero text =
    let b = Buffer.create (String.length text) in
    let rec go i =
      if i < String.length text then
        if i + 3 <= String.length text && String.sub text i 3 = "f31" then begin
          Buffer.add_string b "zero";
          go (i + 3)
        end
        else begin
          Buffer.add_char b text.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents b
  in
  Alcotest.(check string) "optimised as with zero" (printed optimized_zero)
    (as_zero (printed optimized));
  Alcotest.(check bool) "same outcome" true
    (Spike_interp.Machine.execute p = Spike_interp.Machine.execute optimized)

let () =
  Alcotest.run "opt"
    [
      ( "figure1",
        [
          Alcotest.test_case "1a dead return value" `Quick test_fig1a_dead_return_value;
          Alcotest.test_case "1b dead argument" `Quick test_fig1b_dead_argument;
          Alcotest.test_case "1c spill removal" `Quick test_fig1c_spill_removal;
          Alcotest.test_case "1d save/restore" `Quick test_fig1d_save_restore;
        ] );
      ( "preservation",
        [
          Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved;
          Alcotest.test_case "optimized still sound" `Quick test_optimized_soundness;
          Alcotest.test_case "f31 stores" `Quick test_fzero_stores;
        ] );
      ( "warm",
        [
          Alcotest.test_case "warm rerun = cold run" `Slow test_warm_rerun_equals_cold;
          Alcotest.test_case "cold fallbacks" `Quick test_cold_fallbacks;
        ] );
    ]
