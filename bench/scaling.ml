(* The multicore scaling study: how the analysis front-end speeds up with
   the domain count, and the machine-readable BENCH_psg.json record that
   lets the performance trajectory be compared across revisions.

   Each calibrated workload is generated once, then analysed end to end at
   jobs = 1, 2, 4, 8.  The front-end columns (CFG build + initialization +
   PSG build) isolate the per-routine part; the phase fixpoints run
   serially under the SCC-condensation schedule, and the [scc] section
   records their iteration counts and stage times across jobs settings. *)

open Spike_support
open Spike_core
open Spike_synth

let jobs_list = [ 1; 2; 4; 8 ]
let workload_names = [ "gcc"; "acad" ]

type lane = { lane : int; busy_s : float; chunks : int }

type point = {
  workload : string;
  jobs : int;
  routines : int;
  instructions : int;
  total_s : float;
  front_end_s : float;
  stages : (string * float) list;
  per_domain : lane list;
  psg_nodes : int;
  psg_edges : int;
  phase1_iterations : int;
  phase2_iterations : int;
}

let front_end_stages =
  [ Analysis.stage_cfg_build; Analysis.stage_init; Analysis.stage_psg_build ]

(* Per-domain utilization comes from a second, traced, run of the same
   point: the timing run stays untraced so the recorded seconds keep the
   disabled-path overhead (a branch per probe), comparable with earlier
   revisions of this file.  Lane ids are renumbered from 0 because every
   Analysis.run spawns a fresh pool of domains, and only the chunk spans
   of the front-end are summed — that is the busy time of each domain. *)
let trace_per_domain ~program jobs =
  Spike_obs.Trace.enable ();
  ignore (Analysis.run ~jobs program);
  Spike_obs.Trace.disable ();
  List.mapi
    (fun i (_, busy_s, chunks) -> { lane = i; busy_s; chunks })
    (Spike_obs.Trace.lane_seconds ~name:"pool.chunk" ())

let measure_point ~workload ~program jobs =
  let analysis = Analysis.run ~jobs program in
  let stages = Timer.stages analysis.Analysis.timer in
  let stage_get name = try List.assoc name stages with Not_found -> 0.0 in
  {
    workload;
    jobs;
    routines = Spike_ir.Program.routine_count program;
    instructions = Spike_ir.Program.instruction_count program;
    total_s = Analysis.total_seconds analysis;
    front_end_s = List.fold_left (fun s n -> s +. stage_get n) 0.0 front_end_stages;
    stages;
    per_domain = trace_per_domain ~program jobs;
    psg_nodes = Psg.node_count analysis.Analysis.psg;
    psg_edges = Psg.edge_count analysis.Analysis.psg;
    phase1_iterations = analysis.Analysis.phase1_iterations;
    phase2_iterations = analysis.Analysis.phase2_iterations;
  }

let measure ~scale =
  List.concat_map
    (fun name ->
      match Calibrate.find name with
      | None -> []
      | Some row ->
          let program = Generator.generate (Calibrate.params_of ~scale row) in
          List.map (fun jobs -> measure_point ~workload:name ~program jobs) jobs_list)
    workload_names

(* --- The SCC-schedule study --------------------------------------------- *)

(* The condensation's shape, the phases' node recomputations, and the
   phase-stage wall clock across jobs settings.  The phases run serially
   at every jobs value, so the jobs columns time the same serial
   fixpoints and differ only by noise (and by what the parallel front end
   leaves in the heap); the [_jobs4] iteration counts, from a jobs-4 run,
   must equal the jobs-1 ones — asserted here, along with bit-identical
   summaries. *)

type scc_phase_point = { sp_jobs : int; sp_phase1_s : float; sp_phase2_s : float }

type scc_study = {
  scc_workload : string;
  scc_count : int;
  largest_scc : int;
  p1_scc : int;
  p2_scc : int;
  p1_jobs4 : int;
  p2_jobs4 : int;
  phase_points : scc_phase_point list;
}

let scc_jobs_list = [ 1; 2; 4 ]

let measure_scc ~workload ~program =
  let scc1 = Analysis.run ~jobs:1 program in
  let jobs4 = Analysis.run ~jobs:4 program in
  (* The fixpoint is unique: both must land on the same summaries, and the
     per-component iteration counts must not depend on jobs. *)
  assert (jobs4.Analysis.summaries = scc1.Analysis.summaries);
  assert (scc1.Analysis.phase1_iterations = jobs4.Analysis.phase1_iterations);
  assert (scc1.Analysis.phase2_iterations = jobs4.Analysis.phase2_iterations);
  let scc = Psg.call_scc scc1.Analysis.psg in
  let phase_points =
    List.map
      (fun jobs ->
        let best = ref None in
        for _ = 1 to 3 do
          let a = Analysis.run ~jobs program in
          let stages = Timer.stages a.Analysis.timer in
          let get n = try List.assoc n stages with Not_found -> 0.0 in
          let p1 = get Analysis.stage_phase1 and p2 = get Analysis.stage_phase2 in
          match !best with
          | Some (b1, b2) when b1 +. b2 <= p1 +. p2 -> ()
          | _ -> best := Some (p1, p2)
        done;
        let sp_phase1_s, sp_phase2_s = Option.get !best in
        { sp_jobs = jobs; sp_phase1_s; sp_phase2_s })
      scc_jobs_list
  in
  {
    scc_workload = workload;
    scc_count = scc.Scc.count;
    largest_scc = Scc.largest scc;
    p1_scc = scc1.Analysis.phase1_iterations;
    p2_scc = scc1.Analysis.phase2_iterations;
    p1_jobs4 = jobs4.Analysis.phase1_iterations;
    p2_jobs4 = jobs4.Analysis.phase2_iterations;
    phase_points;
  }

(* --- The persistent-store warm-start study ------------------------------ *)

(* How much of a re-analysis the summary store saves, as a function of how
   much of the program an edit dirtied.  The workload is analysed cold and
   persisted once; each sweep point then mutates k routines (bumping an
   immediate, which changes the fingerprint without changing the program
   shape) and re-analyses warm, along both store paths:

   - warm_ms: disk — Store.load + analysis, what a fresh process pays.
     Bounded below by re-fingerprinting and decoding the artifact graph
     (CFG blocks, node kinds, calls; see DESIGN.md), so it flattens out
     well above the pure analysis cost.
   - warm_mem_ms: resident — Store.replan from a retained session +
     analysis, what a watch-mode driver that keeps the previous run alive
     pays.  Skips the decode entirely; only re-fingerprinting and the
     cone re-analysis remain.

   Both exclude the re-save. *)

type store_point = {
  dirty_routines : int;
  dirty_fraction : float;
  warm_ms : float;
  speedup : float;
  warm_mem_ms : float;
  mem_speedup : float;
}

type store_study = {
  store_workload : string;
  cold_ms : float;
  sweep : store_point list;
}

let dirty_fractions = [ 0.0; 0.001; 0.01; 0.05; 0.25 ]

let mutate_routine (r : Spike_ir.Routine.t) =
  let insns = Array.copy r.Spike_ir.Routine.insns in
  let rec go i =
    if i >= Array.length insns then false
    else
      match insns.(i) with
      | Spike_isa.Insn.Li { dst; imm } ->
          insns.(i) <- Spike_isa.Insn.Li { dst; imm = imm + 1 };
          true
      | Spike_isa.Insn.Lda { dst; base; offset } ->
          insns.(i) <- Spike_isa.Insn.Lda { dst; base; offset = offset + 1 };
          true
      | _ -> go (i + 1)
  in
  if go 0 then { r with Spike_ir.Routine.insns } else r

(* Mutate [k] routines spread evenly across the program; returns the
   program and how many actually changed (a routine with no immediate to
   bump stays clean). *)
let mutate_program program k =
  let routines = Spike_ir.Program.routines program in
  let n = Array.length routines in
  let k = min k n in
  let step = if k = 0 then n + 1 else max 1 (n / k) in
  let changed = ref 0 in
  let mutated =
    Array.mapi
      (fun i r ->
        if k > 0 && i mod step = 0 && i / step < k then begin
          let r' = mutate_routine r in
          if r' != r then incr changed;
          r'
        end
        else r)
      routines
  in
  (Spike_ir.Program.make ~main:(Spike_ir.Program.main program)
     (Array.to_list mutated),
   !changed)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1000.0)

let best_of_ms runs f =
  let best = ref infinity in
  let value = ref None in
  for _ = 1 to runs do
    let v, ms = time_ms f in
    if ms < !best then best := ms;
    value := Some v
  done;
  (Option.get !value, !best)

let measure_store ~workload ~program =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spike-store-bench-%d" (Unix.getpid ()))
  in
  let jobs = 1 in
  let cold_baseline, cold_ms =
    best_of_ms 3 (fun () -> Analysis.run ~jobs program)
  in
  let analysed = Analysis.run ~jobs program in
  Spike_store.Store.save ~dir analysed;
  let session = Spike_store.Store.retain analysed in
  let checked = ref false in
  let sweep =
    List.filter_map
      (fun f ->
        let k =
          int_of_float (Float.round (f *. float_of_int (Spike_ir.Program.routine_count program)))
        in
        let k = if f > 0.0 then max 1 k else 0 in
        let mutated, dirty_routines = mutate_program program k in
        let analysis, warm_ms =
          best_of_ms 3 (fun () ->
              let loaded = Spike_store.Store.load ~dir mutated in
              Analysis.run ~jobs ~warm:loaded.Spike_store.Store.plan mutated)
        in
        let analysis_mem, warm_mem_ms =
          best_of_ms 3 (fun () ->
              let replanned = Spike_store.Store.replan session mutated in
              Analysis.run ~jobs ~warm:replanned.Spike_store.Store.plan mutated)
        in
        (* Sanity: a warm re-analysis of the unmutated program must
           reproduce the cold summaries bit for bit, on both paths. *)
        if dirty_routines = 0 && not !checked then begin
          checked := true;
          assert (analysis.Analysis.summaries = cold_baseline.Analysis.summaries);
          assert (
            analysis_mem.Analysis.summaries = cold_baseline.Analysis.summaries)
        end;
        Some
          {
            dirty_routines;
            dirty_fraction =
              float_of_int dirty_routines
              /. float_of_int (Spike_ir.Program.routine_count program);
            warm_ms;
            speedup = (if warm_ms > 0.0 then cold_ms /. warm_ms else 0.0);
            warm_mem_ms;
            mem_speedup =
              (if warm_mem_ms > 0.0 then cold_ms /. warm_mem_ms else 0.0);
          })
      dirty_fractions
  in
  (try
     Sys.remove (Filename.concat dir Spike_store.Store.file_name);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error (_, _, _) -> ());
  { store_workload = workload; cold_ms; sweep }

(* --- BENCH_psg.json ----------------------------------------------------- *)

let json_of_points buf ~scale points sccs stores =
  let field_sep = ref "" in
  let addf fmt = Printf.bprintf buf fmt in
  addf "{\n";
  addf "  \"schema\": \"spike-bench-psg/6\",\n";
  addf "  \"scale\": %.4f,\n" scale;
  addf "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  addf
    "  \"recommended_domains_note\": \"Domain.recommended_domain_count on \
     this machine.  Speedups are bounded by it: a jobs point above it pays \
     domain spawn + scheduling overhead with no extra hardware \
     parallelism.  The iteration columns of the scc section are \
     jobs-independent and comparable across machines.\",\n";
  addf "  \"points\": [";
  List.iter
    (fun p ->
      addf "%s\n    {" !field_sep;
      field_sep := ",";
      addf " \"workload\": \"%s\", \"jobs\": %d," p.workload p.jobs;
      addf " \"routines\": %d, \"instructions\": %d," p.routines p.instructions;
      addf " \"total_s\": %.6f, \"front_end_s\": %.6f," p.total_s p.front_end_s;
      addf " \"stages\": {";
      List.iteri
        (fun i (name, secs) ->
          addf "%s\"%s\": %.6f" (if i = 0 then " " else ", ") name secs)
        p.stages;
      addf " },";
      addf " \"per_domain\": [";
      List.iteri
        (fun i l ->
          addf "%s{ \"lane\": %d, \"busy_s\": %.6f, \"chunks\": %d }"
            (if i = 0 then " " else ", ")
            l.lane l.busy_s l.chunks)
        p.per_domain;
      addf " ],";
      addf " \"psg_nodes\": %d, \"psg_edges\": %d," p.psg_nodes p.psg_edges;
      addf " \"phase1_iterations\": %d, \"phase2_iterations\": %d }" p.phase1_iterations
        p.phase2_iterations)
    points;
  addf "\n  ],\n";
  addf "  \"scc\": [";
  let scc_sep = ref "" in
  List.iter
    (fun s ->
      addf "%s\n    {" !scc_sep;
      scc_sep := ",";
      addf " \"workload\": \"%s\", \"scc_count\": %d, \"largest_scc\": %d,"
        s.scc_workload s.scc_count s.largest_scc;
      addf "\n      \"phase1_iterations\": { \"scc\": %d, \"jobs4\": %d },"
        s.p1_scc s.p1_jobs4;
      addf "\n      \"phase2_iterations\": { \"scc\": %d, \"jobs4\": %d },"
        s.p2_scc s.p2_jobs4;
      addf "\n      \"phase_stage\": [";
      let base =
        match s.phase_points with
        | p :: _ -> p.sp_phase1_s +. p.sp_phase2_s
        | [] -> 0.0
      in
      List.iteri
        (fun i p ->
          let t = p.sp_phase1_s +. p.sp_phase2_s in
          addf
            "%s{ \"jobs\": %d, \"phase1_s\": %.6f, \"phase2_s\": %.6f, \
             \"speedup\": %.2f }"
            (if i = 0 then " " else ", ")
            p.sp_jobs p.sp_phase1_s p.sp_phase2_s
            (if t > 0.0 then base /. t else 0.0))
        s.phase_points;
      addf " ] }")
    sccs;
  addf "\n  ],\n";
  addf "  \"store\": [";
  let store_sep = ref "" in
  List.iter
    (fun s ->
      addf "%s\n    { \"workload\": \"%s\", \"cold_ms\": %.3f, \"sweep\": ["
        !store_sep s.store_workload s.cold_ms;
      store_sep := ",";
      List.iteri
        (fun i p ->
          addf
            "%s{ \"dirty_routines\": %d, \"dirty_fraction\": %.4f, \
             \"warm_ms\": %.3f, \"speedup\": %.2f, \"warm_mem_ms\": %.3f, \
             \"mem_speedup\": %.2f }"
            (if i = 0 then " " else ", ")
            p.dirty_routines p.dirty_fraction p.warm_ms p.speedup p.warm_mem_ms
            p.mem_speedup)
        s.sweep;
      addf " ] }")
    stores;
  addf "\n  ]\n}\n"

let write_json path ~scale points sccs stores =
  let buf = Buffer.create 4096 in
  json_of_points buf ~scale points sccs stores;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

(* --- The scaling table --------------------------------------------------- *)

let print ?(json_path = "BENCH_psg.json") ppf ~scale () =
  Format.fprintf ppf "@.=== Front-end scaling on OCaml 5 domains@.";
  Format.fprintf ppf
    "(workloads generated once and re-analysed per jobs setting; phases 1-2 \
     run under the SCC schedule; this machine recommends %d domains)@."
    (Domain.recommended_domain_count ());
  (* The store study runs first, on a clean heap: timed after the scaling
     sweep it would inherit that sweep's major heap, and the GC marking
     tax inflates every allocation-heavy run by 2-3x on this box — a
     fresh process re-running analyze is the shape being modelled. *)
  let stores =
    List.filter_map
      (fun name ->
        match Calibrate.find name with
        | None -> None
        | Some row ->
            let program = Generator.generate (Calibrate.params_of ~scale row) in
            Some (measure_store ~workload:name ~program))
      [ "gcc" ]
  in
  Gc.compact ();
  let sccs =
    List.filter_map
      (fun name ->
        match Calibrate.find name with
        | None -> None
        | Some row ->
            let program = Generator.generate (Calibrate.params_of ~scale row) in
            Some (measure_scc ~workload:name ~program))
      workload_names
  in
  Gc.compact ();
  let points = measure ~scale in
  let by_workload =
    List.filter
      (fun name -> List.exists (fun p -> String.equal p.workload name) points)
      workload_names
  in
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "%-10s %5s %10s %10s %10s %10s@." "workload" "jobs" "total(s)"
    "frontend(s)" "speedup" "fe-speedup";
  List.iter
    (fun name ->
      let ps = List.filter (fun p -> String.equal p.workload name) points in
      let base = List.find (fun p -> p.jobs = 1) ps in
      List.iter
        (fun p ->
          let speedup t base_t = if t > 0.0 then base_t /. t else 0.0 in
          Format.fprintf ppf "%-10s %5d %10.4f %10.4f %9.2fx %9.2fx@." p.workload
            p.jobs p.total_s p.front_end_s
            (speedup p.total_s base.total_s)
            (speedup p.front_end_s base.front_end_s))
        ps;
      Format.fprintf ppf "%s@." (String.make 78 '-'))
    by_workload;
  Format.fprintf ppf "@.=== SCC-condensation schedule@.";
  Format.fprintf ppf
    "(iterations = node recomputations, deterministic per component, so \
     identical at every jobs setting; phase times are best of 3)@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "%-10s %6s %8s %12s %12s@." "workload" "sccs" "largest"
    "p1 iters" "p2 iters";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-10s %6d %8d %12d %12d@." s.scc_workload s.scc_count
        s.largest_scc s.p1_scc s.p2_scc;
      List.iter
        (fun p ->
          Format.fprintf ppf "%-10s   jobs=%d  phase1 %.4fs  phase2 %.4fs@."
            "" p.sp_jobs p.sp_phase1_s p.sp_phase2_s)
        s.phase_points;
      Format.fprintf ppf "%s@." (String.make 78 '-'))
    sccs;
  Format.fprintf ppf "@.=== Warm-start re-analysis through the summary store@.";
  Format.fprintf ppf
    "(store written once, then k routines mutated and re-analysed warm; \
     disk = store load + analysis, mem = in-process replan + analysis)@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "%-10s %8s %8s %9s %8s %9s %8s@." "workload" "dirty" "frac"
    "disk(ms)" "speedup" "mem(ms)" "speedup";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-10s %8s %8s %9.2f %8s %9s %8s@." s.store_workload
        "cold" "-" s.cold_ms "1.00x" "-" "-";
      List.iter
        (fun p ->
          Format.fprintf ppf "%-10s %8d %7.2f%% %9.2f %7.2fx %9.2f %7.2fx@."
            s.store_workload p.dirty_routines
            (100.0 *. p.dirty_fraction)
            p.warm_ms p.speedup p.warm_mem_ms p.mem_speedup)
        s.sweep;
      Format.fprintf ppf "%s@." (String.make 78 '-'))
    stores;
  write_json json_path ~scale points sccs stores;
  Format.fprintf ppf "wrote %s@." json_path
