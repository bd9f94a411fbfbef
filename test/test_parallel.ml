(* Determinism of the parallel analysis front-end.

   The per-routine stages (CFG build, initialization, PSG local pass) and
   the schedule build run on a domain pool, but their results must not
   depend on the parallelism degree: [Analysis.run ~jobs:k] must produce bit-identical summaries,
   call classes, PSG statistics — indeed a bit-identical PSG — and the
   same phase iteration counts for every k.  This suite pins that on the
   synthetic workloads and the checked-in example program. *)

open Spike_core
open Spike_synth

let jobs_variants = [ 2; 4; 7 ]

let render_summaries (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf summaries ->
      Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s) summaries)
    a.Analysis.summaries

let render_call_classes (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf classes ->
      Array.iter
        (fun (c : Summary.call_class) ->
          Format.fprintf ppf "u=%a d=%a k=%a@." (Spike_support.Regset.pp ?name:None)
            c.Summary.used
            (Spike_support.Regset.pp ?name:None)
            c.Summary.defined
            (Spike_support.Regset.pp ?name:None)
            c.Summary.killed)
        classes)
    a.Analysis.call_classes

let render_psg_stats (a : Analysis.t) =
  Format.asprintf "%a" Psg_stats.pp (Psg_stats.of_psg a.Analysis.psg)

let render_psg (a : Analysis.t) = Format.asprintf "%a" Psg.pp a.Analysis.psg

let check_identical ?branch_nodes ?callee_saved_filter name program =
  let run jobs = Analysis.run ?branch_nodes ?callee_saved_filter ~jobs program in
  let base = run 1 in
  List.iter
    (fun jobs ->
      let tag what = Printf.sprintf "%s: %s at jobs=%d" name what jobs in
      let a = run jobs in
      Alcotest.(check int) (tag "jobs recorded") jobs a.Analysis.jobs;
      Alcotest.(check string)
        (tag "summaries")
        (render_summaries base) (render_summaries a);
      Alcotest.(check string)
        (tag "call classes")
        (render_call_classes base) (render_call_classes a);
      Alcotest.(check string)
        (tag "PSG stats")
        (render_psg_stats base) (render_psg_stats a);
      Alcotest.(check string) (tag "PSG dump") (render_psg base) (render_psg a);
      Alcotest.(check int)
        (tag "phase 1 iterations")
        base.Analysis.phase1_iterations a.Analysis.phase1_iterations;
      Alcotest.(check int)
        (tag "phase 2 iterations")
        base.Analysis.phase2_iterations a.Analysis.phase2_iterations)
    jobs_variants

let synth_program ~seed ~routines ~target_instructions =
  Generator.generate
    { Params.default with Params.seed; routines; target_instructions }

let test_synth_workloads () =
  List.iter
    (fun seed ->
      let program = synth_program ~seed ~routines:40 ~target_instructions:2500 in
      check_identical (Printf.sprintf "synth seed %d" seed) program)
    [ 1; 2; 3 ]

let test_calibrated_workload () =
  match Calibrate.find "gcc" with
  | None -> Alcotest.fail "gcc calibration row missing"
  | Some row ->
      let program = Generator.generate (Calibrate.params_of ~scale:0.02 row) in
      check_identical "calibrated gcc @ 2%" program

let test_config_variants () =
  let program = synth_program ~seed:11 ~routines:25 ~target_instructions:1500 in
  check_identical ~branch_nodes:false "without branch nodes" program;
  check_identical ~callee_saved_filter:false "without callee-saved filter" program

let fact_path =
  if Sys.file_exists "../examples/fact.s" then "../examples/fact.s"
  else "examples/fact.s"

let test_example_program () =
  let program = Spike_asm.Parser.program_of_file fact_path in
  check_identical "examples/fact.s" program

let test_on_demand_schedule_vs_jobs4 () =
  (* The phases called without [~sched] on a freshly built PSG, on a
     schedule built on demand without a pool, against [Analysis.run] at
     jobs 4, whose front end and schedule build ran on 4 domains.  Same
     unique fixpoint, so bit-identical summaries, call classes and PSG,
     though neither the PSG nor the schedule is shared. *)
  List.iter
    (fun (name, program) ->
      let scc4 = Analysis.run ~jobs:4 program in
      let n = Spike_ir.Program.routine_count program in
      let psg =
        Psg_build.build program
          (Array.init n (Analysis.cfg scc4))
          (Array.init n (Analysis.defuse scc4))
      in
      ignore (Phase1.run psg);
      let classes = Summary.extract_call_classes psg in
      ignore (Phase2.run psg);
      let serial =
        { scc4 with Analysis.psg; call_classes = classes; summaries = Summary.extract psg classes }
      in
      let tag what = Printf.sprintf "%s: %s (on-demand vs jobs 4)" name what in
      Alcotest.(check string)
        (tag "summaries")
        (render_summaries serial) (render_summaries scc4);
      Alcotest.(check string)
        (tag "call classes")
        (render_call_classes serial) (render_call_classes scc4);
      Alcotest.(check string) (tag "PSG dump") (render_psg serial) (render_psg scc4))
    [
      ("synth seed 5", synth_program ~seed:5 ~routines:60 ~target_instructions:3000);
      ("examples/fact.s", Spike_asm.Parser.program_of_file fact_path);
    ]

let () =
  Alcotest.run "parallel-determinism"
    [
      ( "jobs-invariance",
        [
          Alcotest.test_case "synthetic workloads" `Quick test_synth_workloads;
          Alcotest.test_case "calibrated gcc" `Quick test_calibrated_workload;
          Alcotest.test_case "config variants" `Quick test_config_variants;
          Alcotest.test_case "example program" `Quick test_example_program;
          Alcotest.test_case "on-demand schedule vs jobs 4" `Quick
            test_on_demand_schedule_vs_jobs4;
        ] );
    ]
