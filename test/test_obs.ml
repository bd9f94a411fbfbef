(* The observability layer: span tracing, the metrics registry, and the
   exporters.

   The load-bearing properties are (1) recording is jobs-invariant —
   counter totals and analysis results do not depend on the parallelism
   degree or on whether collection is enabled — and (2) the exported
   artifacts are well-formed: the Chrome trace parses, begin/end match,
   spans nest, and the metrics JSON round-trips through the validator
   with the iteration counters equal to what [Analysis.run] reports. *)

open Spike_support
open Spike_core
open Spike_synth
module Clock = Spike_obs.Clock
module Trace = Spike_obs.Trace
module Metrics = Spike_obs.Metrics
module Trace_check = Spike_obs.Trace_check

let test_program =
  lazy
    (Generator.generate
       {
         Params.default with
         Params.seed = 5;
         routines = 25;
         target_instructions = 1500;
       })

(* --- Clocks -------------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "Clock.now_ns went backwards: %Ld then %Ld" !prev t;
    prev := t
  done;
  let a = Timer.now () in
  let b = Timer.now () in
  Alcotest.(check bool) "Timer.now nondecreasing" true (b >= a)

let test_sample_bytes () =
  let s = Memmeter.sample_bytes () in
  Alcotest.(check bool) "sample_bytes non-negative" true (s >= 0);
  Alcotest.(check bool)
    "sample_bytes bounds the collected live heap" true
    (Memmeter.sample_bytes () >= 0 && Memmeter.live_bytes () > 0)

(* --- Spans --------------------------------------------------------------- *)

let test_span_nesting () =
  Trace.enable ();
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 41) + 1)
  in
  Trace.with_span "later" ignore;
  Trace.disable ();
  Alcotest.(check int) "with_span returns the body's result" 42 r;
  match Trace.events () with
  | [ outer; inner; later ] ->
      let open Trace in
      Alcotest.(check string) "outermost first" "outer" outer.name;
      Alcotest.(check string) "nested second" "inner" inner.name;
      Alcotest.(check string) "sequential last" "later" later.name;
      Alcotest.(check bool) "same lane" true
        (outer.lane = inner.lane && inner.lane = later.lane);
      Alcotest.(check bool) "inner starts inside outer" true
        (Int64.compare inner.ts_ns outer.ts_ns >= 0);
      Alcotest.(check bool) "inner ends inside outer" true
        (Int64.compare
           (Int64.add inner.ts_ns inner.dur_ns)
           (Int64.add outer.ts_ns outer.dur_ns)
        <= 0);
      Alcotest.(check bool) "later starts after outer ends" true
        (Int64.compare later.ts_ns (Int64.add outer.ts_ns outer.dur_ns) >= 0)
  | events -> Alcotest.failf "expected 3 events, got %d" (List.length events)

let test_span_disabled_and_raise () =
  Trace.enable ();
  Trace.disable ();
  Alcotest.(check int) "disabled with_span is transparent" 7
    (Trace.with_span "ignored" (fun () -> 7));
  Alcotest.(check int) "disabled spans are not recorded" 0
    (List.length (Trace.events ()));
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Trace.disable ();
  match Trace.events () with
  | [ e ] -> Alcotest.(check string) "raising span still recorded" "boom" e.Trace.name
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

(* --- Counters under the pool --------------------------------------------- *)

let c_test = Metrics.counter "test.obs.increments"

let pool_totals jobs =
  Metrics.enable ();
  Pool.with_pool ~jobs (fun pool ->
      ignore
        (Pool.parallel_init pool 10_000 (fun i ->
             Metrics.incr c_test;
             i)));
  let snap = Metrics.snapshot () in
  Metrics.disable ();
  snap

let count snap name =
  match Metrics.find snap name with
  | Some (Metrics.Count n) -> n
  | Some (Metrics.Value _) -> Alcotest.failf "%s is a gauge" name
  | None -> Alcotest.failf "%s missing from snapshot" name

let test_counters_jobs_invariant () =
  List.iter
    (fun jobs ->
      let snap = pool_totals jobs in
      Alcotest.(check int)
        (Printf.sprintf "increments at jobs=%d" jobs)
        10_000
        (count snap "test.obs.increments");
      Alcotest.(check int)
        (Printf.sprintf "pool.items at jobs=%d" jobs)
        10_000 (count snap "pool.items"))
    [ 1; 4 ]

(* --- Whole-analysis metrics ---------------------------------------------- *)

(* Counters only: gauges are heap samples, partition-dependent noise;
   pool.chunks depends on how the atomic chunk counter dealt the work. *)
let counters_of snap =
  List.filter_map
    (function
      | "pool.chunks", _ | _, Metrics.Value _ -> None
      | name, Metrics.Count n -> Some (name, n))
    snap

let analysis_with_metrics jobs =
  Metrics.enable ();
  let a = Analysis.run ~jobs (Lazy.force test_program) in
  let snap = Metrics.snapshot () in
  Metrics.disable ();
  (a, snap)

let test_analysis_metrics_jobs_invariant () =
  let a1, snap1 = analysis_with_metrics 1 in
  let a4, snap4 = analysis_with_metrics 4 in
  Alcotest.(check (list (pair string int)))
    "counter totals identical at jobs=1 and jobs=4" (counters_of snap1)
    (counters_of snap4);
  Alcotest.(check int) "phase1.iterations matches the result (jobs=1)"
    a1.Analysis.phase1_iterations
    (count snap1 "phase1.iterations");
  Alcotest.(check int) "phase2.iterations matches the result (jobs=1)"
    a1.Analysis.phase2_iterations
    (count snap1 "phase2.iterations");
  Alcotest.(check int) "phase1.iterations matches the result (jobs=4)"
    a4.Analysis.phase1_iterations
    (count snap4 "phase1.iterations");
  Alcotest.(check bool) "analysis.runs counted" true
    (count snap1 "analysis.runs" = 1)

(* The edge labelling solves once per distinct sink block, not once per
   flow edge: [edge_dataflow.solves] equals the number of distinct flow
   edge sinks (each sink node sits at its own cut block), falls strictly
   below the flow-edge count on a call-dense program, and is the same at
   jobs=1 and jobs=4. *)
let test_one_solve_per_sink () =
  let p =
    Generator.generate
      {
        Params.default with
        Params.seed = 7;
        routines = 30;
        target_instructions = 2500;
        calls_per_routine = 6.0;
      }
  in
  let solves jobs =
    Metrics.enable ();
    let a = Analysis.run ~jobs p in
    let snap = Metrics.snapshot () in
    Metrics.disable ();
    (a.Analysis.psg, count snap "edge_dataflow.solves")
  in
  let psg, solves1 = solves 1 in
  let _, solves4 = solves 4 in
  let sinks = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if Test_helpers.is_flow_edge psg e then Hashtbl.replace sinks psg.Psg.dst.(e) ())
    (Test_helpers.edges_of psg);
  Alcotest.(check int) "one solve per distinct sink" (Hashtbl.length sinks) solves1;
  Alcotest.(check bool) "fewer solves than flow edges" true
    (solves1 < Psg.flow_edge_count psg);
  Alcotest.(check int) "solves at jobs=4" solves1 solves4

(* --- Exported artifacts -------------------------------------------------- *)

let stage_names =
  [
    Analysis.stage_cfg_build;
    Analysis.stage_init;
    Analysis.stage_psg_build;
    Analysis.stage_phase1;
    Analysis.stage_phase2;
  ]

let test_chrome_trace_valid () =
  Trace.enable ();
  ignore (Analysis.run ~jobs:4 (Lazy.force test_program));
  Trace.disable ();
  let json = Trace.chrome_json () in
  match Trace_check.validate_trace json with
  | Error msg -> Alcotest.failf "exported trace rejected: %s" msg
  | Ok s ->
      Alcotest.(check bool) "spans recorded" true (s.Trace_check.events > 0);
      Alcotest.(check bool) "at least one lane" true (s.Trace_check.lanes >= 1);
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (Printf.sprintf "trace names %S" stage)
            true
            (List.mem stage s.Trace_check.names))
        stage_names;
      Alcotest.(check bool) "pool chunks traced" true
        (List.mem "pool.chunk" s.Trace_check.names)

let test_metrics_json_roundtrip () =
  let a, _ = analysis_with_metrics 2 in
  (* snapshot again through the JSON exporter before disabling *)
  Metrics.enable ();
  let a2 = Analysis.run ~jobs:2 (Lazy.force test_program) in
  let path = Filename.temp_file "spike_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Metrics.write_json oc;
      close_out oc;
      Metrics.disable ();
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Trace_check.validate_metrics text with
      | Error msg -> Alcotest.failf "exported metrics rejected: %s" msg
      | Ok metrics ->
          let get name =
            match List.assoc_opt name metrics with
            | Some v -> int_of_float v
            | None -> Alcotest.failf "%s missing from metrics JSON" name
          in
          Alcotest.(check int) "phase1.iterations in JSON"
            a2.Analysis.phase1_iterations (get "phase1.iterations");
          Alcotest.(check int) "phase2.iterations in JSON"
            a2.Analysis.phase2_iterations (get "phase2.iterations");
          Alcotest.(check int) "stable across runs" a.Analysis.phase1_iterations
            a2.Analysis.phase1_iterations)

(* --- Observation does not perturb the analysis ---------------------------- *)

let render (a : Analysis.t) =
  Format.asprintf "%a|%a|%d|%d"
    (fun ppf summaries ->
      Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s) summaries)
    a.Analysis.summaries Psg_stats.pp
    (Psg_stats.of_psg a.Analysis.psg)
    a.Analysis.phase1_iterations a.Analysis.phase2_iterations

let test_observation_is_transparent () =
  let program = Lazy.force test_program in
  let plain = render (Analysis.run ~jobs:4 program) in
  Trace.enable ();
  Metrics.enable ();
  let observed = render (Analysis.run ~jobs:4 program) in
  Metrics.disable ();
  Trace.disable ();
  Alcotest.(check string) "tracing + metrics leave results unchanged" plain
    observed

(* --- Validator rejects malformed input ------------------------------------ *)

let check_rejected what text =
  match Trace_check.validate_trace text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "validator accepted %s" what

let xev ?(tid = 0) name ts dur =
  Printf.sprintf
    {|{"name":"%s","cat":"span","ph":"X","pid":1,"tid":%d,"ts":%f,"dur":%f}|}
    name tid ts dur

let trace_doc events =
  Printf.sprintf {|{"traceEvents":[%s]}|} (String.concat "," events)

let test_validator_negative () =
  check_rejected "truncated JSON" {|{"traceEvents":[|};
  check_rejected "no traceEvents" {|{"events":[]}|};
  check_rejected "B without E"
    (trace_doc [ {|{"name":"a","ph":"B","pid":1,"tid":0,"ts":0}|} ]);
  check_rejected "partially overlapping spans"
    (trace_doc [ xev "a" 0.0 100.0; xev "b" 50.0 150.0 ]);
  (match Trace_check.validate_trace (trace_doc [ xev "a" 0.0 100.0; xev "b" 10.0 20.0 ]) with
  | Ok s -> Alcotest.(check int) "nested spans accepted" 2 s.Trace_check.events
  | Error msg -> Alcotest.failf "nested spans rejected: %s" msg);
  (match Trace_check.validate_metrics {|{"schema":"other","metrics":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validator accepted a foreign metrics schema")

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "heap sampling" `Quick test_sample_bytes;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "disabled / raising" `Quick
            test_span_disabled_and_raise;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "pool counters jobs-invariant" `Quick
            test_counters_jobs_invariant;
          Alcotest.test_case "one edge solve per sink" `Quick test_one_solve_per_sink;
          Alcotest.test_case "analysis counters jobs-invariant" `Quick
            test_analysis_metrics_jobs_invariant;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace validates" `Quick
            test_chrome_trace_valid;
          Alcotest.test_case "metrics JSON round-trips" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "validator rejects malformed input" `Quick
            test_validator_negative;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "observation does not change results" `Quick
            test_observation_is_transparent;
        ] );
    ]
