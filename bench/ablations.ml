(* Ablations of the paper's design choices, beyond the branch-node ablation
   Table 4 already measures:

   1. The §3.4 callee-saved filter: how much summary precision and
      optimization opportunity the save/restore transparency buys.
   2. §3.5 external summaries: precision with compiler/linker-provided
      summaries for out-of-image calls vs the calling-standard assumption.
   3. PSG valid-paths precision vs the context-insensitive supergraph. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_core
open Spike_synth

let line ppf = Format.fprintf ppf "%s@." (String.make 100 '-')

let mean_cardinal sets =
  if sets = [] then 0.0
  else
    float_of_int (List.fold_left (fun n s -> n + Regset.cardinal s) 0 sets)
    /. float_of_int (List.length sets)

(* --- 1. §3.4 filter ----------------------------------------------------- *)

let filter_ablation ppf =
  Format.fprintf ppf "@.=== Ablation: the §3.4 callee-saved save/restore filter@.";
  line ppf;
  let params =
    { Params.default with Params.seed = 31; routines = 40; target_instructions = 3000;
      save_restore_prob = 0.8 }
  in
  let program = Generator.generate params in
  let with_filter = Analysis.run program in
  let without = Analysis.run ~callee_saved_filter:false program in
  let killed a =
    Array.to_list (Array.map (fun (c : Summary.call_class) -> c.Summary.killed) a.Analysis.call_classes)
  in
  let used a =
    Array.to_list (Array.map (fun (c : Summary.call_class) -> c.Summary.used) a.Analysis.call_classes)
  in
  Format.fprintf ppf "mean |call-killed| with filter:    %.2f@."
    (mean_cardinal (killed with_filter));
  Format.fprintf ppf "mean |call-killed| without filter: %.2f@."
    (mean_cardinal (killed without));
  Format.fprintf ppf "mean |call-used|   with filter:    %.2f@."
    (mean_cardinal (used with_filter));
  Format.fprintf ppf "mean |call-used|   without filter: %.2f@."
    (mean_cardinal (used without));
  let _, report_with = Spike_opt.Opt.run with_filter in
  let _, report_without = Spike_opt.Opt.run without in
  Format.fprintf ppf
    "optimizer with filter:    %d save/restores reallocated, %d dead instructions@."
    report_with.Spike_opt.Opt.save_restores_rewritten
    report_with.Spike_opt.Opt.dead_instructions_removed;
  Format.fprintf ppf
    "optimizer without filter: %d save/restores reallocated, %d dead instructions@."
    report_without.Spike_opt.Opt.save_restores_rewritten
    report_without.Spike_opt.Opt.dead_instructions_removed

(* --- 2. §3.5 external summaries ------------------------------------------ *)

(* Externalize a fraction of direct call targets: rename the callee to a
   name outside the image and remember the true summary under that name.
   Comparing analyses with and without the summaries isolates what the
   compiler/linker channel is worth. *)
let externalize program (analysis : Analysis.t) fraction =
  let victims = ref [] in
  Program.iter
    (fun r (routine : Routine.t) ->
      if
        (not (String.equal routine.Routine.name (Program.main program)))
        && r * 7919 mod 100 < int_of_float (fraction *. 100.0)
        && Routine.exit_count routine > 0
      then victims := routine.Routine.name :: !victims)
    program;
  let victims = !victims in
  let is_victim name = List.mem name victims in
  let externals_table =
    List.map
      (fun name ->
        let idx = Option.get (Program.find_index program name) in
        let c = analysis.Analysis.call_classes.(idx) in
        ( "ext_" ^ name,
          {
            Psg.x_used = c.Summary.used;
            x_defined = c.Summary.defined;
            x_killed = c.Summary.killed;
          } ))
      victims
  in
  (* Rewrite calls to victims into calls to the external names; the victim
     routines stay in the image (now possibly uncalled), modelling a
     library boundary. *)
  let rewritten =
    Program.map_routines
      (fun (routine : Routine.t) ->
        let insns =
          Array.map
            (fun insn ->
              match insn with
              | Insn.Call { callee = Insn.Direct name } when is_victim name ->
                  Insn.Call { callee = Insn.Direct ("ext_" ^ name) }
              | _ -> insn)
            routine.Routine.insns
        in
        { routine with Routine.insns })
      program
  in
  (rewritten, externals_table)

let externals_ablation ppf =
  Format.fprintf ppf "@.=== Ablation: §3.5 compiler/linker summaries for external calls@.";
  line ppf;
  let params =
    { Params.default with Params.seed = 77; routines = 40; target_instructions = 3000 }
  in
  let program = Generator.generate params in
  let base = Analysis.run program in
  let rewritten, table = externalize program base 0.3 in
  let with_summaries =
    Analysis.run
      ~externals:(fun name -> List.assoc_opt name table)
      rewritten
  in
  let without = Analysis.run rewritten in
  let live_entry a =
    Array.to_list
      (Array.map
         (fun (s : Summary.t) ->
           match s.Summary.live_at_entry with (_, l) :: _ -> l | [] -> Regset.empty)
         a.Analysis.summaries)
  in
  Format.fprintf ppf "externalized direct-call targets: %d@." (List.length table);
  (* Per-site comparison: what each analysis believes external calls use
     and kill.  The assumption is not a safe over-approximation — it is the
     calling standard taken on faith (arguments used, temporaries killed) —
     so the summaries both tighten and correct it. *)
  let site_sets (a : Analysis.t) =
    Array.to_list (Array.mapi (fun c callee -> (c, callee)) a.Analysis.psg.Psg.callee)
    |> List.filter_map (fun (c, callee) ->
           match callee with
           | Insn.Direct name when String.length name > 4 && String.sub name 0 4 = "ext_"
             ->
               Some (Analysis.site_class a c)
           | _ -> None)
  in
  let used_of sites = List.map (fun (c : Summary.call_class) -> c.Summary.used) sites in
  let killed_of sites = List.map (fun (c : Summary.call_class) -> c.Summary.killed) sites in
  let s_with = site_sets with_summaries and s_without = site_sets without in
  Format.fprintf ppf "mean |call-used| at external sites, summaries:  %.2f@."
    (mean_cardinal (used_of s_with));
  Format.fprintf ppf "mean |call-used| at external sites, assumption: %.2f@."
    (mean_cardinal (used_of s_without));
  Format.fprintf ppf "mean |call-killed| at external sites, summaries:  %.2f@."
    (mean_cardinal (killed_of s_with));
  Format.fprintf ppf "mean |call-killed| at external sites, assumption: %.2f@."
    (mean_cardinal (killed_of s_without));
  Format.fprintf ppf "mean |live-at-entry| with summaries:   %.2f@."
    (mean_cardinal (live_entry with_summaries));
  Format.fprintf ppf "mean |live-at-entry| with assumption:  %.2f@."
    (mean_cardinal (live_entry without));
  let _, r_with = Spike_opt.Opt.run with_summaries in
  let _, r_without = Spike_opt.Opt.run without in
  Format.fprintf ppf "dead instructions removed with summaries:  %d@."
    r_with.Spike_opt.Opt.dead_instructions_removed;
  Format.fprintf ppf "dead instructions removed with assumption: %d@."
    r_without.Spike_opt.Opt.dead_instructions_removed

(* --- 3. valid-paths precision vs the supergraph --------------------------- *)

let precision_ablation ppf =
  Format.fprintf ppf
    "@.=== Ablation: meet-over-valid-paths (PSG) vs the context-insensitive \
     supergraph@.";
  line ppf;
  Format.fprintf ppf "%-10s %10s %14s %16s@." "benchmark" "entries" "looser-entries"
    "extra-live-regs";
  List.iter
    (fun name ->
      match Calibrate.find name with
      | None -> ()
      | Some row ->
          let program = Generator.generate (Calibrate.params_of ~scale:0.1 row) in
          let analysis = Analysis.run program in
          let n = Program.routine_count program in
          let super =
            Spike_supercfg.Supercfg.build program (Array.init n (Analysis.cfg analysis))
          in
          let live =
            Spike_supercfg.Supercfg.liveness super (Array.init n (Analysis.defuse analysis))
          in
          let total = ref 0 and looser = ref 0 and extra = ref 0 in
          Program.iter
            (fun r (_ : Routine.t) ->
              match (analysis.Analysis.summaries.(r)).Summary.live_at_entry with
              | (_, psg_live) :: _ ->
                  let entry_block = Spike_cfg.Cfg.entry_block (Analysis.cfg analysis r) 0 in
                  incr total;
                  let super_live =
                    Regset.inter
                      (Spike_supercfg.Supercfg.live_in live ~routine:r ~block:entry_block)
                      Calling_standard.all_allocatable
                  in
                  let d = Regset.cardinal (Regset.diff super_live psg_live) in
                  if d > 0 then begin
                    incr looser;
                    extra := !extra + d
                  end
              | [] -> ())
            program;
          Format.fprintf ppf "%-10s %10d %14d %16.1f@." name !total !looser
            (if !looser = 0 then 0.0 else float_of_int !extra /. float_of_int !looser))
    [ "compress"; "li"; "perl"; "vortex"; "vc" ]

let print ppf =
  filter_ablation ppf;
  externals_ablation ppf;
  precision_ablation ppf
