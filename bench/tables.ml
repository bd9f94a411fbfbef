(* Rendering of the paper's tables and figures, paper numbers next to the
   measurements taken on the calibrated synthetic workloads. *)

open Spike_synth

let fl = float_of_int
let line ppf = Format.fprintf ppf "%s@." (String.make 100 '-')

let header title ppf =
  Format.fprintf ppf "@.=== %s@." title;
  line ppf

let table1 ppf =
  header "Table 1: PC application benchmarks (paper) -> synthetic equivalents" ppf;
  Format.fprintf ppf "%-10s %-48s %s@." "name" "paper application" "our workload";
  line ppf;
  List.iter
    (fun (r : Calibrate.paper_row) ->
      if String.equal r.suite "PC" then
        Format.fprintf ppf "%-10s %-48s calibrated synthetic (seed %d)@." r.name
          r.description
          (Calibrate.params_of r).Params.seed)
    Calibrate.benchmarks

let table2 ppf (ms : Measure.t list) =
  header "Table 2: benchmark size, dataflow analysis time and memory usage" ppf;
  Format.fprintf ppf "%-10s %9s %9s %8s | %9s %9s | %9s %9s@." "benchmark" "routines"
    "blocks" "insns(k)" "paper(s)" "ours(s)" "paper(MB)" "ours(MB)";
  line ppf;
  List.iter
    (fun (m : Measure.t) ->
      Format.fprintf ppf "%-10s %9d %9d %8.1f | %9.2f %9.3f | %9.2f %9.2f@."
        m.Measure.row.Calibrate.name m.Measure.routines m.Measure.blocks
        (fl m.Measure.instructions /. 1000.0)
        m.Measure.row.Calibrate.time_s m.Measure.time_s
        m.Measure.row.Calibrate.memory_mb m.Measure.memory_mb)
    ms

let table3 ppf (ms : Measure.t list) =
  header "Table 3: benchmark characteristics influencing PSG size (per routine)" ppf;
  Format.fprintf ppf "%-10s | %-11s | %-11s | %-13s | %-13s | %-13s | %-13s@."
    "benchmark" "entrances" "exits" "calls" "branches" "PSG nodes" "PSG edges";
  Format.fprintf ppf "%-10s | %5s %5s | %5s %5s | %6s %6s | %6s %6s | %6s %6s | %6s %6s@."
    "" "paper" "ours" "paper" "ours" "paper" "ours" "paper" "ours" "paper" "ours"
    "paper" "ours";
  line ppf;
  List.iter
    (fun (m : Measure.t) ->
      let r = m.Measure.row in
      let per x = fl x /. fl m.Measure.routines in
      Format.fprintf ppf
        "%-10s | %5.2f %5.2f | %5.2f %5.2f | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f \
         | %6.2f %6.2f@."
        r.Calibrate.name r.Calibrate.entrances m.Measure.entrances_per_routine
        r.Calibrate.exits m.Measure.exits_per_routine r.Calibrate.calls
        m.Measure.calls_per_routine r.Calibrate.branches m.Measure.branches_per_routine
        r.Calibrate.psg_nodes_per_routine
        (per m.Measure.psg.Spike_core.Psg_stats.nodes)
        r.Calibrate.psg_edges_per_routine
        (per m.Measure.psg.Spike_core.Psg_stats.edges))
    ms

let table4 ppf (ms : Measure.t list) =
  header "Table 4: PSG edge reduction provided by branch nodes" ppf;
  Format.fprintf ppf "%-10s | %-19s | %-19s@." "benchmark" "edge reduction"
    "node increase";
  Format.fprintf ppf "%-10s | %8s %8s | %8s %8s@." "" "paper" "ours" "paper" "ours";
  line ppf;
  List.iter
    (fun (m : Measure.t) ->
      let r = m.Measure.row in
      Format.fprintf ppf "%-10s | %7.1f%% %7.1f%% | %7.1f%% %7.1f%%@." r.Calibrate.name
        r.Calibrate.edge_reduction_pct
        (Measure.edge_reduction_pct m)
        r.Calibrate.node_increase_pct
        (Measure.node_increase_pct m))
    ms

let table5 ppf (ms : Measure.t list) =
  header "Table 5: PSG nodes and edges vs CFG basic blocks and arcs (thousands)" ppf;
  Format.fprintf ppf "%-10s | %-17s | %-17s | %-17s | %-17s | %5s %5s@." "benchmark"
    "PSG nodes (k)" "PSG edges (k)" "blocks (k)" "CFG arcs (k)" "n/bb" "e/arc";
  Format.fprintf ppf "%-10s | %8s %8s | %8s %8s | %8s %8s | %8s %8s |@." "" "paper"
    "ours" "paper" "ours" "paper" "ours" "paper" "ours";
  line ppf;
  List.iter
    (fun (m : Measure.t) ->
      let r = m.Measure.row in
      let k x = fl x /. 1000.0 in
      let nodes_k = k m.Measure.psg.Spike_core.Psg_stats.nodes in
      let edges_k = k m.Measure.psg.Spike_core.Psg_stats.edges in
      let blocks_k = k m.Measure.blocks in
      let arcs_k = k m.Measure.supergraph_arcs in
      Format.fprintf ppf
        "%-10s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %5.2f %5.2f@."
        r.Calibrate.name r.Calibrate.psg_nodes_k nodes_k r.Calibrate.psg_edges_k edges_k
        (fl r.Calibrate.basic_blocks /. 1000.0)
        blocks_k r.Calibrate.cfg_arcs_k arcs_k (nodes_k /. blocks_k)
        (edges_k /. arcs_k))
    ms

let figure13 ppf (ms : Measure.t list) =
  header "Figure 13: fraction of total dataflow time per analysis stage" ppf;
  Format.fprintf ppf "%-10s %10s %10s %10s %10s %10s %10s | %8s@." "benchmark"
    "CFG build" "Init" "PSG build" "SCC Sched" "Phase 1" "Phase 2" "total(s)";
  line ppf;
  List.iter
    (fun (m : Measure.t) ->
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 m.Measure.stages in
      let pct stage =
        match List.assoc_opt stage m.Measure.stages with
        | Some s when total > 0.0 -> 100.0 *. s /. total
        | Some _ | None -> 0.0
      in
      Format.fprintf ppf "%-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% | %8.3f@."
        m.Measure.row.Calibrate.name
        (pct Spike_core.Analysis.stage_cfg_build)
        (pct Spike_core.Analysis.stage_init)
        (pct Spike_core.Analysis.stage_psg_build)
        (pct Spike_core.Analysis.stage_sched)
        (pct Spike_core.Analysis.stage_phase1)
        (pct Spike_core.Analysis.stage_phase2)
        total)
    ms

let figure14 ppf (ms : Measure.t list) sweep =
  header "Figure 14: total analysis time vs routines / basic blocks / instructions" ppf;
  Format.fprintf ppf "%-12s %9s %9s %12s %10s@." "benchmark" "routines" "blocks"
    "instructions" "time(s)";
  line ppf;
  let sorted =
    List.sort
      (fun (a : Measure.t) b -> Int.compare a.Measure.instructions b.Measure.instructions)
      ms
  in
  List.iter
    (fun (m : Measure.t) ->
      Format.fprintf ppf "%-12s %9d %9d %12d %10.3f@." m.Measure.row.Calibrate.name
        m.Measure.routines m.Measure.blocks m.Measure.instructions m.Measure.time_s)
    sorted;
  Format.fprintf ppf "@.scaling sweep (gcc shape, scale factor on routines and size):@.";
  List.iter
    (fun (scale, (m : Measure.t)) ->
      Format.fprintf ppf "%-12s %9d %9d %12d %10.3f@."
        (Printf.sprintf "gcc x%.2f" scale)
        m.Measure.routines m.Measure.blocks m.Measure.instructions m.Measure.time_s)
    sweep

let figure15 ppf (ms : Measure.t list) sweep =
  header "Figure 15: analysis memory vs routines / basic blocks / instructions" ppf;
  Format.fprintf ppf "%-12s %9s %9s %12s %12s@." "benchmark" "routines" "blocks"
    "instructions" "memory(MB)";
  line ppf;
  let sorted =
    List.sort
      (fun (a : Measure.t) b -> Int.compare a.Measure.instructions b.Measure.instructions)
      ms
  in
  List.iter
    (fun (m : Measure.t) ->
      Format.fprintf ppf "%-12s %9d %9d %12d %12.2f@." m.Measure.row.Calibrate.name
        m.Measure.routines m.Measure.blocks m.Measure.instructions m.Measure.memory_mb)
    sorted;
  Format.fprintf ppf "@.scaling sweep (gcc shape):@.";
  List.iter
    (fun (scale, (m : Measure.t)) ->
      Format.fprintf ppf "%-12s %9d %9d %12d %12.2f@."
        (Printf.sprintf "gcc x%.2f" scale)
        m.Measure.routines m.Measure.blocks m.Measure.instructions m.Measure.memory_mb)
    sweep
