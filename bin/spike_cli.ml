(* spike — command-line front end to the analysis and optimizer.

   Subcommands:
     spike analyze FILE        interprocedural dataflow summaries
     spike opt FILE -o OUT     optimize and write the result
     spike run FILE            execute under the interpreter
     spike gen                 generate a synthetic workload as assembly
     spike dump FILE           CFG/PSG statistics for a program *)

open Cmdliner
open Spike_support
open Spike_ir
open Spike_core

let c_asm_bytes = Spike_obs.Metrics.counter "asm.bytes"

(* A malformed input file is a usage error like an ill-formed program:
   [FILE:LINE: message] on stderr and exit 2, never an uncaught exception. *)
let input_error path line message =
  Format.eprintf "%s:%d: %s@." path line message;
  exit 2

(* Reading and parsing is span [asm.parse], validation [ir.validate]: the
   front end's share of a traced command. *)
let load_program path =
  let program =
    Spike_obs.Trace.with_span "asm.parse" (fun () ->
        let source = In_channel.with_open_bin path In_channel.input_all in
        Spike_obs.Metrics.add c_asm_bytes (String.length source);
        match Spike_asm.Parser.program_of_string source with
        | program -> program
        | exception Spike_asm.Parser.Error { line; message } ->
            input_error path line message)
  in
  match Spike_obs.Trace.with_span "ir.validate" (fun () -> Validate.check program) with
  | Ok () -> program
  | Error problems ->
      Format.eprintf "%s: ill-formed program:@." path;
      List.iter (fun p -> Format.eprintf "  %s@." p) problems;
      exit 2

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly file.")

let externals_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "externals" ] ~docv:"FILE"
        ~doc:
          "Summary file with compiler/linker-provided register summaries for \
           external routines (§3.5).")

let load_externals = function
  | None -> Psg.no_externals
  | Some path -> (
      match Spike_asm.Summaries.of_file path with
      | entries -> Spike_asm.Summaries.lookup entries
      | exception Spike_asm.Summaries.Error { line; message } ->
          input_error path line message)

let branch_nodes_arg =
  Arg.(
    value & opt bool true
    & info [ "branch-nodes" ] ~docv:"BOOL"
        ~doc:"Insert PSG branch nodes at multiway branches (§3.6).")

(* --jobs takes its own conv so that 0 or a negative count is a crisp
   cmdliner usage error instead of being silently clamped. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a count of at least 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the per-routine analysis stages and the schedule \
           build; the phase 1 and phase 2 interprocedural fixpoints run \
           serially (default: the machine's recommended domain count; must \
           be at least 1).  Results are identical for every value.")

(* --- Persistent summary store (shared by analyze/opt) -------------------- *)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent summary store directory.  Cached per-routine artifacts \
           warm-start the analysis (results are bit-identical to a cold \
           run); the store is refreshed after the analysis.  A missing, \
           stale or corrupt store silently degrades to a cold run.")

(* Analysis through the store: load a warm plan, analyse, refresh the
   store.  One stderr line summarises what the store contributed.  A
   store that cannot be saved costs only the next run's warm start, so
   the command reports it and carries on, as after a degraded load. *)
let run_analysis ~store ~branch_nodes ~externals ?jobs program =
  match store with
  | None -> Analysis.run ~branch_nodes ~externals ?jobs program
  | Some dir ->
      let loaded = Spike_store.Store.load ~dir ~branch_nodes ~externals program in
      let analysis =
        Analysis.run ~branch_nodes ~externals ?jobs
          ~warm:loaded.Spike_store.Store.plan program
      in
      (try Spike_store.Store.save ~dir analysis
       with Sys_error reason ->
         Format.eprintf "spike-store: cannot save store in %s: %s@." dir reason);
      Format.eprintf "store: hits=%d misses=%d invalidated=%d%s@."
        loaded.Spike_store.Store.hits loaded.Spike_store.Store.misses
        loaded.Spike_store.Store.invalidated
        (match loaded.Spike_store.Store.degraded with
        | Some _ -> " (degraded to cold)"
        | None -> "");
      analysis

(* --- Observability flags (shared by analyze/opt/run/dump) --------------- *)

type obs = {
  trace_out : (string * out_channel) option;
  metrics_out : (string * out_channel) option;
  mutable stats : bool;
}

(* Output paths are opened before the command does any work, so a bad
   path fails in milliseconds, not after a long analysis. *)
let open_out_or_die ~flag path =
  try open_out path
  with Sys_error msg ->
    Format.eprintf "spike: cannot write --%s: %s@." flag msg;
    exit 1

let obs_setup trace_out metrics_out stats =
  let obs =
    {
      trace_out = Option.map (fun p -> (p, open_out_or_die ~flag:"trace-out" p)) trace_out;
      metrics_out =
        Option.map (fun p -> (p, open_out_or_die ~flag:"metrics-out" p)) metrics_out;
      stats;
    }
  in
  if obs.trace_out <> None then Spike_obs.Trace.enable ();
  if obs.metrics_out <> None || obs.stats then Spike_obs.Metrics.enable ();
  obs

(* [force_stats] late-enables metrics for [analyze --verbose]; it must be
   called before the analysis runs. *)
let obs_force_stats obs =
  if not (obs.stats || obs.metrics_out <> None) then Spike_obs.Metrics.enable ();
  obs.stats <- true

let obs_finish obs =
  Spike_obs.Trace.disable ();
  (match obs.trace_out with
  | Some (path, oc) ->
      Spike_obs.Trace.write_chrome oc;
      close_out oc;
      Format.printf "wrote %s (load it in Perfetto or chrome://tracing)@." path
  | None -> ());
  (match obs.metrics_out with
  | Some (path, oc) ->
      Spike_obs.Metrics.write_json oc;
      close_out oc;
      Format.printf "wrote %s@." path
  | None -> ());
  if obs.stats then Format.printf "@.=== metrics@.%t@." Spike_obs.Metrics.pp;
  Spike_obs.Metrics.disable ()

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the command (one lane per \
             analysis domain); load it in Perfetto or chrome://tracing.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics registry snapshot as JSON.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the metrics table when the command finishes.")
  in
  Term.(const obs_setup $ trace_out $ metrics_out $ stats)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let run file branch_nodes verbose externals jobs store summaries_out obs =
    (* --verbose is the ergonomic spelling of --stats: one detailed view,
       the metrics table, instead of a separate ad-hoc dump. *)
    if verbose then obs_force_stats obs;
    let summaries_oc =
      Option.map
        (fun p -> (p, open_out_or_die ~flag:"summaries-out" p))
        summaries_out
    in
    let program = load_program file in
    let analysis =
      run_analysis ~store ~branch_nodes
        ~externals:(load_externals externals) ?jobs program
    in
    Format.printf "%a@." Analysis.pp_times analysis;
    Format.printf "%a@." Psg_stats.pp (Psg_stats.of_psg analysis.Analysis.psg);
    Array.iter
      (fun summary -> Format.printf "@.%a@." Summary.pp summary)
      analysis.Analysis.summaries;
    (match summaries_oc with
    | Some (path, oc) ->
        let ppf = Format.formatter_of_out_channel oc in
        Array.iter
          (fun summary -> Format.fprintf ppf "%a@." Summary.pp summary)
          analysis.Analysis.summaries;
        Format.pp_print_flush ppf ();
        close_out oc;
        Format.printf "wrote %s@." path
    | None -> ());
    obs_finish obs
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Also print the metrics table (same as $(b,--stats)).")
  in
  let summaries_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "summaries-out" ] ~docv:"FILE"
          ~doc:
            "Also write the routine summaries (and nothing else) to \
             $(docv) — a deterministic dump, diffable across runs.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Compute interprocedural register summaries")
    Term.(
      const run $ file_arg $ branch_nodes_arg $ verbose $ externals_arg $ jobs_arg
      $ store_arg $ summaries_out $ obs_term)

(* --- opt --------------------------------------------------------------- *)

let opt_cmd =
  let run file output externals jobs store obs =
    let program = load_program file in
    let optimized, report =
      Spike_obs.Trace.with_span "opt.run" (fun () ->
          Spike_opt.Opt.run
            (run_analysis ~store ~branch_nodes:true
               ~externals:(load_externals externals) ?jobs program))
    in
    Format.printf "%a@." Spike_opt.Opt.pp_report report;
    Spike_obs.Trace.with_span "asm.print" (fun () ->
        match output with
        | Some path ->
            Spike_asm.Printer.to_file path optimized;
            Format.printf "wrote %s@." path
        | None -> Format.printf "@.%a@." Spike_asm.Printer.pp_program optimized);
    obs_finish obs
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write the optimized program here.")
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Apply the summary-driven optimizations (Figure 1)")
    Term.(
      const run $ file_arg $ output $ externals_arg $ jobs_arg $ store_arg $ obs_term)

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let run file fuel check jobs obs =
    let program = load_program file in
    if check then begin
      let analysis = Analysis.run ?jobs program in
      let outcome, violations =
        Spike_obs.Trace.with_span "oracle.check" (fun () ->
            Spike_interp.Oracle.check ~fuel analysis)
      in
      List.iter
        (fun v -> Format.printf "violation: %a@." Spike_interp.Oracle.pp_violation v)
        violations;
      (match outcome with
      | Spike_interp.Machine.Halted v -> Format.printf "halted, v0 = %d@." v
      | Spike_interp.Machine.Trapped _ -> Format.printf "trapped@.");
      obs_finish obs;
      if violations <> [] then exit 1
    end
    else begin
      let outcome =
        Spike_obs.Trace.with_span "interp.execute" (fun () ->
            Spike_interp.Machine.execute ~fuel program)
      in
      obs_finish obs;
      match outcome with
      | Spike_interp.Machine.Halted v -> Format.printf "halted, v0 = %d@." v
      | Spike_interp.Machine.Trapped _ ->
          Format.printf "trapped@.";
          exit 1
    end
  in
  let fuel =
    Arg.(
      value & opt int 10_000_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget (default 10M).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Run the dynamic soundness oracle against the analysis while executing.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program under the interpreter")
    Term.(const run $ file_arg $ fuel $ check $ jobs_arg $ obs_term)

(* --- gen --------------------------------------------------------------- *)

let gen_cmd =
  let run seed routines instructions benchmark scale output =
    let params =
      match benchmark with
      | Some name -> (
          match Spike_synth.Calibrate.find name with
          | Some row -> Spike_synth.Calibrate.params_of ~scale row
          | None ->
              Format.eprintf "unknown benchmark %s (see bench/main.exe --table 1)@." name;
              exit 2)
      | None ->
          {
            Spike_synth.Params.default with
            Spike_synth.Params.seed;
            routines;
            target_instructions = instructions;
          }
    in
    let program = Spike_synth.Generator.generate params in
    match output with
    | Some path ->
        Spike_asm.Printer.to_file path program;
        Format.printf "wrote %s (%d routines, %d instructions)@." path
          (Program.routine_count program)
          (Program.instruction_count program)
    | None -> Format.printf "%a@?" Spike_asm.Printer.pp_program program
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let routines =
    Arg.(value & opt int 12 & info [ "routines" ] ~docv:"N" ~doc:"Routine count.")
  in
  let instructions =
    Arg.(
      value & opt int 600
      & info [ "instructions" ] ~docv:"N" ~doc:"Approximate program size.")
  in
  let benchmark =
    Arg.(
      value
      & opt (some string) None
      & info [ "benchmark" ] ~docv:"NAME"
          ~doc:"Use a paper-calibrated shape (e.g. gcc, acad).")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "bench-scale" ] ~docv:"F" ~doc:"Benchmark scale.")
  in
  let output =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic workload as assembly")
    Term.(const run $ seed $ routines $ instructions $ benchmark $ scale $ output)

(* --- dump -------------------------------------------------------------- *)

let dump_cmd =
  let run file branch_nodes jobs obs =
    let program = load_program file in
    let analysis = Analysis.run ~branch_nodes ?jobs program in
    let cfgs = Array.init (Program.routine_count program) (Analysis.cfg analysis) in
    let blocks = Array.fold_left (fun n cfg -> n + Spike_cfg.Cfg.block_count cfg) 0 cfgs in
    let super = Spike_supercfg.Supercfg.build program cfgs in
    Format.printf "routines:      %d@." (Program.routine_count program);
    Format.printf "instructions:  %d@." (Program.instruction_count program);
    Format.printf "basic blocks:  %d@." blocks;
    Format.printf "CFG arcs:      %d (incl. %d call, %d return)@."
      (Spike_supercfg.Supercfg.arc_count super)
      (Spike_supercfg.Supercfg.call_arc_count super)
      (Spike_supercfg.Supercfg.return_arc_count super);
    Format.printf "%a@." Psg_stats.pp (Psg_stats.of_psg analysis.Analysis.psg);
    Array.iteri
      (fun r cfg ->
        Format.printf "@.%a" Spike_cfg.Cfg.pp cfg;
        let filter = analysis.Analysis.psg.Psg.entry_filter.(r) in
        if not (Regset.is_empty filter) then
          Format.printf "  saved+restored: %a@."
            (Regset.pp ~name:Spike_isa.Reg.name)
            filter)
      cfgs;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Dump CFGs and graph statistics")
    Term.(const run $ file_arg $ branch_nodes_arg $ jobs_arg $ obs_term)

let () =
  let doc = "post-link-time interprocedural register dataflow (PLDI'97 reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "spike" ~doc) [ analyze_cmd; opt_cmd; run_cmd; gen_cmd; dump_cmd ]))
