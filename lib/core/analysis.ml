open Spike_support
open Spike_ir
open Spike_cfg

type front = { cfgs : Cfg.t Lazy.t array; defuses : Defuse.t Lazy.t array }

type t = {
  program : Program.t;
  front : front;
  psg : Psg.t;
  call_classes : Summary.call_class array;
  summaries : Summary.t array;
  timer : Timer.t;
  phase1_iterations : int;
  phase2_iterations : int;
  branch_nodes : bool;
  externals : string -> Psg.external_class option;
  callee_saved_filter : bool;
  jobs : int;
  reused_routines : int;
  schedule : Sched.t option;
}

let stage_cfg_build = "CFG Build"
let stage_init = "Initialization"
let stage_psg_build = "PSG Build"
let stage_sched = "SCC Sched"
let stage_phase1 = "Phase 1"
let stage_phase2 = "Phase 2"

(* Observability.  Every stage is both a timer bucket and a trace span,
   followed by a heap-footprint gauge sample; the PSG composition
   counters mirror Figures 14-15's size-by-label breakdown. *)
let c_runs = Spike_obs.Metrics.counter "analysis.runs"
let c_routines = Spike_obs.Metrics.counter "analysis.routines"

let psg_counters =
  [
    (Spike_obs.Metrics.counter "psg.nodes", fun (s : Psg_stats.t) -> s.nodes);
    (Spike_obs.Metrics.counter "psg.nodes.entry", fun s -> s.entry_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.exit", fun s -> s.exit_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.call", fun s -> s.call_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.return", fun s -> s.return_nodes);
    (Spike_obs.Metrics.counter "psg.nodes.branch", fun s -> s.branch_nodes);
    ( Spike_obs.Metrics.counter "psg.nodes.unknown_exit",
      fun s -> s.unknown_exit_nodes );
    (Spike_obs.Metrics.counter "psg.edges", fun s -> s.edges);
    (Spike_obs.Metrics.counter "psg.edges.flow", fun s -> s.flow_edges);
    ( Spike_obs.Metrics.counter "psg.edges.call_return",
      fun s -> s.call_return_edges );
  ]

let heap_gauge =
  let gauges = Hashtbl.create 8 in
  fun stage ->
    match Hashtbl.find_opt gauges stage with
    | Some g -> g
    | None ->
        let g = Spike_obs.Metrics.gauge ("heap.bytes.after." ^ stage) in
        Hashtbl.add gauges stage g;
        g

(* A stage is one timer bucket, one span, and one heap sample. *)
let record_stage timer stage f =
  let result = Timer.record timer stage (fun () -> Spike_obs.Trace.with_span stage f) in
  if Spike_obs.Metrics.enabled () then
    Spike_obs.Metrics.set_gauge (heap_gauge stage)
      (float_of_int (Memmeter.sample_bytes ()));
  result

(* Warm counters: how much front-end work a plan saved vs. redid. *)
let c_reused = Spike_obs.Metrics.counter "warm.routines.reused"
let c_rebuilt = Spike_obs.Metrics.counter "warm.routines.rebuilt"
let c_sched_reused = Spike_obs.Metrics.counter "sched.reused"

(* A routine whose artifact the plan reused gets its CFG and DEF/UBD on
   first demand; [reused_front] lets {!rerun} hand over the previous
   run's entry instead. *)
let on_demand program r =
  let cfg = lazy (Cfg.build (Program.get program r)) in
  (cfg, lazy (Defuse.compute (Lazy.force cfg)))

(* One pipeline for every run: per-routine front-end artifacts come from
   the plan when present and are rebuilt when not — a cold run is the
   all-rebuild plan {!Warm.cold}.  After the rebuild, {!Warm.solutions}
   lifts the cached solutions of any rebuilt routine whose equation system
   turned out unchanged; both phases then restart only the remaining dirty
   routines, restoring converged values outside the invalidation cones the
   planners close.  When no solution is reused at all, the cones would
   cover every node, so the phases run cold and the planning is skipped.

   [previous] is the PSG and the schedule of the run a rerun's plan was
   sliced from ({!Warm.of_previous}); a plain run has none and keeps no
   schedule. *)
let run_with ~reused_front ~previous ~branch_nodes ~externals ~callee_saved_filter ~jobs
    ~warm program =
  let jobs =
    match jobs with Some j -> max 1 (min j 64) | None -> Pool.default_jobs ()
  in
  let plan = match warm with Some p -> p | None -> Warm.cold program in
  Pool.with_pool ~jobs @@ fun pool ->
  let timer = Timer.create () in
  Spike_obs.Metrics.incr c_runs;
  Spike_obs.Metrics.add c_routines (Program.routine_count program);
  let routines = Program.routines program in
  let n = Array.length routines in
  let reused_routines = Warm.reused plan in
  Spike_obs.Metrics.add c_reused reused_routines;
  Spike_obs.Metrics.add c_rebuilt (n - reused_routines);
  let art r = plan.Warm.arts.(r) in
  (* The front end builds a CFG and DEF/UBD only for the routines the plan
     rebuilds ([None] where it reuses an artifact). *)
  let cfgs =
    record_stage timer stage_cfg_build (fun () ->
        Pool.parallel_init pool n (fun r ->
            match art r with
            | Some _ -> None
            | None ->
                Some
                  (Spike_obs.Trace.with_span "cfg.build" (fun () -> Cfg.build routines.(r)))))
  in
  let defuses, entry_filters =
    record_stage timer stage_init (fun () ->
        let defuses =
          Pool.parallel_init pool n (fun r ->
              Option.map
                (fun cfg ->
                  Spike_obs.Trace.with_span "defuse.compute" (fun () -> Defuse.compute cfg))
                cfgs.(r))
        in
        let filters =
          if callee_saved_filter then
            Pool.parallel_init pool n (fun r ->
                match art r with
                | Some a -> Warm.filter a
                | None ->
                    Spike_obs.Trace.with_span "callee_saved.filter" (fun () ->
                        Callee_saved.saved_and_restored routines.(r) (Option.get cfgs.(r))))
          else Array.make n Regset.empty
        in
        (defuses, filters))
  in
  let parts, psg, same_topology =
    record_stage timer stage_psg_build (fun () ->
        let resolve_targets = Psg_build.resolver ~externals program in
        let parts =
          Pool.parallel_init pool n (fun r ->
              match art r with
              | Some a -> Warm.part a
              | None ->
                  Spike_obs.Trace.with_span "psg.local_pass" (fun () ->
                      Psg_build.Local
                        (Psg_build.local_pass ~branch_nodes ~resolve_targets r
                           (Option.get cfgs.(r)) (Option.get defuses.(r)))))
        in
        (* A rerun in which every rebuilt fragment kept its donor's
           topology has the previous PSG's topology. *)
        let topology =
          Option.bind previous (fun ((old : Psg.t), _) ->
              let kept r =
                Option.is_some (art r)
                ||
                match (plan.Warm.donors.(r), parts.(r)) with
                | Some d, Psg_build.Local l -> Psg_build.same_topology d.Warm.d_art.a_local l
                | _ -> false
              in
              if Seq.for_all kept (Seq.init n Fun.id) then Some old else None)
        in
        let psg =
          Spike_obs.Trace.with_span "psg.stitch" (fun () ->
              Psg_build.stitch_parts ?topology ~entry_filters program parts)
        in
        (parts, psg, topology <> None))
  in
  if Spike_obs.Metrics.enabled () then begin
    let stats = Psg_stats.of_psg psg in
    List.iter (fun (c, get) -> Spike_obs.Metrics.add c (get stats)) psg_counters
  end;
  let sols, exit_seeds =
    Spike_obs.Trace.with_span "warm.lift" (fun () ->
        Warm.solutions plan ~program ~parts ~filters:entry_filters)
  in
  let reuse = Array.exists Option.is_some sols in
  (* The condensation schedule both phases share depends only on the PSG's
     topology.  A rerun that kept the previous topology carries the
     previous schedule forward; otherwise it is built on first use, as its
     own stage: {!Sched.run} forces it only for a phase with something to
     run, so a phase whose invalidation cone is empty never pays for it.
     A phase's warm plan is timed with the phase but built before the
     schedule is forced. *)
  let carried =
    match previous with Some (_, carried) when same_topology -> carried | _ -> None
  in
  let sched =
    match carried with
    | Some s ->
        lazy
          (Spike_obs.Metrics.incr c_sched_reused;
           s)
    | None -> lazy (record_stage timer stage_sched (fun () -> Sched.make ~pool psg))
  in
  (* The readers (in-edges and callers) are built on first use too, for
     this run only: planners and phases share them, the result keeps
     none. *)
  let readers = lazy (Spike_obs.Trace.with_span "psg.readers" (fun () -> Readers.make psg)) in
  let plan_phase stage span f =
    if reuse then Some (Timer.record timer stage (fun () -> Spike_obs.Trace.with_span span f))
    else None
  in
  let cone1 =
    plan_phase stage_phase1 "warm.phase1_plan" (fun () ->
        Warm.phase1_plan psg ~readers:(Lazy.force readers) ~sols)
  in
  let phase1_iterations, call_classes =
    record_stage timer stage_phase1 (fun () ->
        let iterations = Sched.run ~sched ~readers ?cone:cone1 psg (Phase1.phase psg) in
        (iterations, Summary.extract_call_classes psg))
  in
  let cone2 =
    plan_phase stage_phase2 "warm.phase2_plan" (fun () ->
        Warm.phase2_plan psg ~readers:(Lazy.force readers) ~sols ~exit_seeds)
  in
  let phase2_iterations, summaries =
    record_stage timer stage_phase2 (fun () ->
        let iterations = Sched.run ~sched ~readers ?cone:cone2 psg (Phase2.phase psg) in
        (iterations, Summary.extract psg call_classes))
  in
  (* Only a rerun keeps its schedule, built or carried, for the next. *)
  let schedule =
    match previous with
    | Some _ when Lazy.is_val sched -> Some (Lazy.force sched)
    | Some _ -> carried
    | None -> None
  in
  let front =
    let entries =
      Array.init n (fun r ->
          match (cfgs.(r), defuses.(r)) with
          | Some cfg, Some defuse -> (Lazy.from_val cfg, Lazy.from_val defuse)
          | _ -> reused_front r)
    in
    { cfgs = Array.map fst entries; defuses = Array.map snd entries }
  in
  {
    program;
    front;
    psg;
    call_classes;
    summaries;
    timer;
    phase1_iterations;
    phase2_iterations;
    branch_nodes;
    externals;
    callee_saved_filter;
    jobs;
    reused_routines;
    schedule;
  }

let run ?(branch_nodes = true) ?(externals = Psg.no_externals)
    ?(callee_saved_filter = true) ?jobs ?warm ?capture:_ program =
  run_with ~reused_front:(on_demand program) ~previous:None ~branch_nodes ~externals
    ~callee_saved_filter ~jobs ~warm program

(* A rerun keys reuse on physical identity ({!Warm.of_previous}).  When no
   routine changed, the previous result already is the new program's: the
   CFGs, PSG and summaries were built from the very same routines. *)

let rerun t program =
  let old = t.program in
  let n = Program.routine_count program in
  let unchanged =
    Program.routine_count old = n
    && String.equal (Program.main old) (Program.main program)
    && Array.for_all2 ( == ) (Program.routines old) (Program.routines program)
  in
  if unchanged then
    {
      t with
      program;
      timer = Timer.create ();
      phase1_iterations = 0;
      phase2_iterations = 0;
      reused_routines = n;
    }
  else
    (* The plan reuses exactly the routines physically equal to [old]'s at
       the same index, so [t]'s memo entry is theirs, built or not. *)
    run_with
      ~reused_front:(fun r -> (t.front.cfgs.(r), t.front.defuses.(r)))
      ~previous:(Some (t.psg, t.schedule)) ~branch_nodes:t.branch_nodes
      ~externals:t.externals ~callee_saved_filter:t.callee_saved_filter
      ~jobs:(Some t.jobs)
      ~warm:(Some (Warm.of_previous t.psg program))
      program

let cfg t r = Lazy.force t.front.cfgs.(r)
let defuse t r = Lazy.force t.front.defuses.(r)

let summary_of t name = Summary.find t.summaries t.program name
let site_class t c = Summary.site_class t.psg t.call_classes c
let total_seconds t = Timer.total t.timer

let pp_times ppf t =
  let total = total_seconds t in
  Format.fprintf ppf "@[<v>total dataflow time: %.4fs" total;
  List.iter
    (fun (stage, secs) ->
      Format.fprintf ppf "@ %-16s %.4fs (%4.1f%%)" stage secs
        (if total > 0.0 then 100.0 *. secs /. total else 0.0))
    (Timer.stages t.timer);
  Format.fprintf ppf "@]"
