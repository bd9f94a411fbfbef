(* Whole-program scale: generate a gcc-shaped synthetic application,
   analyse it, compare the PSG against the whole-program CFG baseline, and
   check the summaries against the brute-force reference and (on an
   executable workload) against actual execution.

     dune exec examples/whole_program.exe *)

open Spike_support
open Spike_ir
open Spike_core
open Spike_synth

let () =
  (* A tenth-scale gcc: ~190 routines, ~30k instructions. *)
  let row =
    match Calibrate.find "gcc" with Some r -> r | None -> assert false
  in
  let program = Generator.generate (Calibrate.params_of ~scale:0.1 row) in
  Format.printf "generated gcc-shaped workload: %d routines, %d instructions@."
    (Program.routine_count program)
    (Program.instruction_count program);
  let analysis, bytes = Memmeter.measure (fun () -> Analysis.run program) in
  Format.printf "@.%a@." Analysis.pp_times analysis;
  Format.printf "memory retained by the analysis: %.2f MB@." (Memmeter.megabytes bytes);
  Format.printf "%a@." Psg_stats.pp (Psg_stats.of_psg analysis.Analysis.psg);
  (* The compact representation vs the full CFG (Table 5's point). *)
  let n = Program.routine_count program in
  let cfgs = Array.init n (Analysis.cfg analysis) in
  let blocks = Array.fold_left (fun n c -> n + Spike_cfg.Cfg.block_count c) 0 cfgs in
  let super = Spike_supercfg.Supercfg.build program cfgs in
  let stats = Psg_stats.of_psg analysis.Analysis.psg in
  Format.printf "@.PSG nodes / CFG blocks: %d / %d = %.2f@." stats.Psg_stats.nodes blocks
    (float_of_int stats.Psg_stats.nodes /. float_of_int blocks);
  Format.printf "PSG edges / CFG arcs:   %d / %d = %.2f@." stats.Psg_stats.edges
    (Spike_supercfg.Supercfg.arc_count super)
    (float_of_int stats.Psg_stats.edges
    /. float_of_int (Spike_supercfg.Supercfg.arc_count super));
  (* Precision: context-insensitive supergraph liveness vs the PSG's
     valid-paths liveness at every routine entry. *)
  let live = Spike_supercfg.Supercfg.liveness super (Array.init n (Analysis.defuse analysis)) in
  let looser = ref 0 and total = ref 0 and extra_regs = ref 0 in
  Program.iter
    (fun r (_ : Routine.t) ->
      match (analysis.Analysis.summaries.(r)).Summary.live_at_entry with
      | (_, psg_live) :: _ ->
          let entry_block = Spike_cfg.Cfg.entry_block cfgs.(r) 0 in
          incr total;
          let super_live =
            Regset.inter
              (Spike_supercfg.Supercfg.live_in live ~routine:r ~block:entry_block)
              Spike_isa.Calling_standard.all_allocatable
          in
          let extra = Regset.cardinal (Regset.diff super_live psg_live) in
          if extra > 0 then begin
            incr looser;
            extra_regs := !extra_regs + extra
          end
      | [] -> ())
    program;
  Format.printf
    "@.supergraph liveness is strictly looser at %d/%d entries (%.1f extra live \
     registers on average there)@."
    !looser !total
    (if !looser = 0 then 0.0 else float_of_int !extra_regs /. float_of_int !looser);
  (* Exact agreement with the brute-force reference. *)
  let reference = Spike_reference.Reference.run program in
  let disagreements = ref 0 in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = reference.Spike_reference.Reference.call_classes.(r) in
      if
        not
          (Regset.equal c.Summary.used d.Summary.used
          && Regset.equal c.Summary.defined d.Summary.defined
          && Regset.equal c.Summary.killed d.Summary.killed)
      then incr disagreements)
    analysis.Analysis.call_classes;
  Format.printf "reference fixpoint disagreements: %d (expected 0)@." !disagreements;
  (* Dynamic check on an executable workload. *)
  let exe = Generator.generate { Params.default with Params.seed = 2026; routines = 20 } in
  let exe_analysis = Analysis.run exe in
  let outcome, violations = Spike_interp.Oracle.check exe_analysis in
  (match outcome with
  | Spike_interp.Machine.Halted v -> Format.printf "@.executable workload halted (v0 = %d)@." v
  | Spike_interp.Machine.Trapped _ -> Format.printf "@.executable workload trapped@.");
  Format.printf "dynamic soundness violations: %d (expected 0)@."
    (List.length violations)
