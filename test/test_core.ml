(* Core analysis units: the Figure-6 edge dataflow and its per-edge
   oracle, callee-saved save/restore detection, PSG statistics, call-site
   summary merging, and analysis behaviour on recursion, multiple entries,
   and unknown calls. *)

open Spike_support
open Spike_isa
open Spike_core
open Test_helpers

let regset = regset_testable

(* --- Edge_dataflow ------------------------------------------------------- *)

let test_edge_dataflow_algebra () =
  let a =
    {
      Edge_dataflow.may_use = rs [ 1 ];
      may_def = rs [ 2 ];
      must_def = rs [ 2; 3 ];
    }
  in
  let b =
    {
      Edge_dataflow.may_use = rs [ 4 ];
      may_def = rs [ 5 ];
      must_def = rs [ 3; 5 ];
    }
  in
  let j = Edge_dataflow.join a b in
  Alcotest.check regset "join may_use" (rs [ 1; 4 ]) j.Edge_dataflow.may_use;
  Alcotest.check regset "join may_def" (rs [ 2; 5 ]) j.Edge_dataflow.may_def;
  Alcotest.check regset "join must_def" (rs [ 3 ]) j.Edge_dataflow.must_def;
  (* Transfer: IN = UBD ∪ (OUT - DEF); DEFs accumulate. *)
  let out =
    {
      Edge_dataflow.may_use = rs [ 1; 2 ];
      may_def = rs [ 3 ];
      must_def = rs [ 3 ];
    }
  in
  let inn = Edge_dataflow.apply_block ~def:(rs [ 2; 4 ]) ~ubd:(rs [ 5 ]) out in
  Alcotest.check regset "in may_use" (rs [ 1; 5 ]) inn.Edge_dataflow.may_use;
  Alcotest.check regset "in may_def" (rs [ 2; 3; 4 ]) inn.Edge_dataflow.may_def;
  Alcotest.check regset "in must_def" (rs [ 2; 3; 4 ]) inn.Edge_dataflow.must_def

(* A loop inside a sink's backward region: Figure 6 must converge. *)
let test_edge_dataflow_loop () =
  let g =
    routine "g"
      [
        (Some "head", use r1);
        (None, li r2 1);
        (None, bne r2 "head");
        (None, ret);
      ]
  in
  let cfg = Spike_cfg.Cfg.build g in
  let defuse = Spike_cfg.Defuse.compute cfg in
  let exit_block = List.hd (Spike_cfg.Cfg.exit_blocks cfg) in
  let sol =
    Edge_dataflow.solve ~cfg ~defuse ~is_cut:(fun _ -> false)
      ~sink:exit_block ()
  in
  let at_entry = Edge_dataflow.in_of sol 0 in
  check_restricted "loop may_use" ~over:(rs [ r1; r2 ])
    (rs [ r1 ])
    at_entry.Edge_dataflow.may_use;
  check_restricted "loop must_def" ~over:(rs [ r1; r2 ])
    (rs [ r2 ])
    at_entry.Edge_dataflow.must_def

(* --- Flow-edge labels against the per-edge oracle -------------------------- *)

let leaf = routine "g" [ (None, li r0 1); (None, ret) ]

(* The PSG's flow-edge labels, solved once per sink over its backward
   region, must equal the per-edge construction's with and without branch
   nodes.  Returns the oracle's edges (with branch nodes) for shape checks. *)
let oracle_agrees routines =
  let p = program ~main:"main" routines in
  List.iter
    (fun branch_nodes ->
      match Label_oracle.mismatches ~branch_nodes p with
      | [] -> ()
      | problems ->
          Alcotest.failf "branch_nodes=%b: %s" branch_nodes (String.concat "; " problems))
    [ true; false ];
  let r = Option.get (Spike_ir.Program.find_index p "main") in
  let cfg = Spike_cfg.Cfg.build (Spike_ir.Program.get p r) in
  (cfg, Label_oracle.flow_edges ~branch_nodes:true r cfg (Spike_cfg.Defuse.compute cfg))

let has_edge edges src dst =
  List.exists (fun (e : Label_oracle.edge) -> e.src = src && e.dst = dst) edges

(* The return point of the first call is itself a call block: its return
   node's only edge runs to the call node at the same block. *)
let test_labels_return_ends_in_call () =
  let _, edges =
    oracle_agrees
      [
        routine "main"
          [ (None, li r1 1); (None, call "g"); (None, use r1); (None, call "g");
            (None, li r2 2); (None, ret) ];
        leaf;
      ]
  in
  (* blocks: 0 = li; call   1 = use; call   2 = li; ret *)
  Alcotest.(check bool) "return -> call at the same block" true
    (has_edge edges
       (Psg.Return { routine = 0; call_block = 0; block = 1 })
       (Psg.Call { routine = 0; block = 1 }))

(* A switch whose arms are: itself (a self-loop), a call block (another
   cut), and a plain block running to the exit. *)
let test_labels_switch_arms () =
  let _, edges =
    oracle_agrees
      [
        routine "main"
          [
            (None, li r1 0);
            (Some "head", switch r1 [ "head"; "arm_call"; "arm_plain" ]);
            (Some "arm_call", call "g");
            (None, br "head");
            (Some "arm_plain", li r2 2);
            (None, use r1);
            (None, ret);
          ];
        leaf;
      ]
  in
  let branch = Psg.Branch { routine = 0; block = 1 } in
  Alcotest.(check bool) "branch -> itself" true (has_edge edges branch branch);
  Alcotest.(check bool) "branch -> call arm" true
    (has_edge edges branch (Psg.Call { routine = 0; block = 2 }))

(* A secondary entry at a loop head: its paths run around the loop. *)
let test_labels_entry_in_loop () =
  let _, edges =
    oracle_agrees
      [
        routine ~entries:[ "main$a"; "main$b" ] "main"
          [
            (Some "main$a", li r1 1);
            (Some "main$b", use r2);
            (None, li r3 1);
            (None, bne r1 "main$b");
            (None, ret);
          ];
      ]
  in
  Alcotest.(check bool) "looping entry reaches the exit" true
    (List.exists
       (fun (e : Label_oracle.edge) ->
         e.src = Psg.Entry { routine = 0; label = "main$b" }
         && List.length e.subgraph > 1)
       edges)

(* One exit reached from the entry and from a call's return point, along
   different blocks: the exit's backward region is strictly larger than
   either edge's subgraph, and both labels still match the oracle. *)
let test_labels_shared_sink () =
  let cfg, edges =
    oracle_agrees
      [
        routine "main"
          [
            (None, li r1 1);
            (None, bne r1 "join");
            (None, call "g");
            (None, li r3 2);
            (None, br "join");
            (Some "join", use r2);
            (None, ret);
          ];
        leaf;
      ]
  in
  let exit_block = List.hd (Spike_cfg.Cfg.exit_blocks cfg) in
  let into_exit =
    List.filter
      (fun (e : Label_oracle.edge) -> e.dst = Psg.Exit { routine = 0; block = exit_block })
      edges
  in
  Alcotest.(check int) "two edges into the exit" 2 (List.length into_exit);
  let defuse = Spike_cfg.Defuse.compute cfg in
  let is_cut b = Spike_cfg.Cfg.ending cfg b <> Spike_cfg.Cfg.Ends_plain in
  let sol = Edge_dataflow.solve ~cfg ~defuse ~is_cut ~sink:exit_block () in
  let region =
    List.filter (Edge_dataflow.mem sol) (List.init (Spike_cfg.Cfg.block_count cfg) Fun.id)
  in
  List.iter
    (fun (e : Label_oracle.edge) ->
      Alcotest.(check bool) "region strictly contains the subgraph" true
        (List.for_all (fun b -> List.mem b region) e.subgraph
        && List.length region > List.length e.subgraph))
    into_exit;
  match into_exit with
  | [ a; b ] ->
      Alcotest.(check bool) "the two subgraphs differ" true (a.subgraph <> b.subgraph)
  | _ -> assert false

(* --- Solver cost ------------------------------------------------------------ *)

(* The Figure-6 counters of one local pass over routine [r] of [p]. *)
let local_pass_counters p r =
  let cfg = Spike_cfg.Cfg.build (Spike_ir.Program.get p r) in
  let defuse = Spike_cfg.Defuse.compute cfg in
  let resolve_targets = Psg_build.resolver ~externals:Psg.no_externals p in
  Spike_obs.Metrics.enable ();
  Fun.protect ~finally:Spike_obs.Metrics.disable @@ fun () ->
  ignore (Psg_build.local_pass ~branch_nodes:true ~resolve_targets r cfg defuse);
  let snap = Spike_obs.Metrics.snapshot () in
  let count name =
    match Spike_obs.Metrics.find snap name with
    | Some (Spike_obs.Metrics.Count n) -> n
    | _ -> Alcotest.failf "no counter %s" name
  in
  (cfg, count "edge_dataflow.solves", count "edge_dataflow.sweeps",
   count "edge_dataflow.block_visits")

(* A chain of 100 000 blocks, each ending in a branch to the next, into
   the one exit: the exit's region is the whole routine and acyclic.  The
   region search and the forward reach are iterative, and the first sweep
   is the fixpoint, so the solve visits each block once. *)
let test_long_chain () =
  let n = 100_000 in
  let rows =
    List.concat
      (List.init n (fun i ->
           [ (Some (Printf.sprintf "l%d" i), li r1 i);
             (None, beq r1 (Printf.sprintf "l%d" (i + 1))) ]))
    @ [ (Some (Printf.sprintf "l%d" n), use r1); (None, ret) ]
  in
  let p = program ~main:"main" [ routine "main" rows ] in
  let cfg, solves, sweeps, visits = local_pass_counters p 0 in
  let blocks = Spike_cfg.Cfg.block_count cfg in
  Alcotest.(check bool) "one block per link" true (blocks > n);
  Alcotest.(check int) "one solve" 1 solves;
  Alcotest.(check int) "one sweep" 1 sweeps;
  Alcotest.(check int) "each block visited once" blocks visits

(* Thousands of call sinks behind one switch: each call's region is its
   own block, and the switch's and the exit's regions hold every return
   block.  Summed over the sinks, the visits stay within a small factor
   of the summed region sizes, as a per-sink pass over the whole routine
   would not. *)
let test_many_small_sinks () =
  let n = 3_000 in
  let arm i = Printf.sprintf "arm%d" i in
  let rows =
    [ (None, li r1 0); (Some "head", switch r1 (List.init n arm)) ]
    @ List.concat
        (List.init n (fun i -> [ (Some (arm i), call "g"); (None, br "join") ]))
    @ [ (Some "join", bne r1 "head"); (None, use r2); (None, ret) ]
  in
  let p = program ~main:"main" [ routine "main" rows; leaf ] in
  let cfg, solves, _, visits = local_pass_counters p 0 in
  let nblocks = Spike_cfg.Cfg.block_count cfg in
  let is_cut b = Spike_cfg.Cfg.ending cfg b <> Spike_cfg.Cfg.Ends_plain in
  (* Every cut block is some flow's sink here; sum their regions. *)
  let region_size sink =
    let seen = Hashtbl.create 16 in
    let rec visit = function
      | [] -> ()
      | b :: rest ->
          if Hashtbl.mem seen b then visit rest
          else begin
            Hashtbl.add seen b ();
            visit
              (List.filter (fun q -> not (is_cut q))
                 (Array.to_list (Spike_cfg.Cfg.preds cfg b))
              @ rest)
          end
    in
    visit [ sink ];
    Hashtbl.length seen
  in
  let sinks = List.filter is_cut (List.init nblocks Fun.id) in
  let summed = List.fold_left (fun acc b -> acc + region_size b) 0 sinks in
  Alcotest.(check int) "one solve per cut block" (List.length sinks) solves;
  Alcotest.(check bool) "regions are small but for two" true (summed < 4 * n);
  Alcotest.(check bool)
    (Printf.sprintf "visits %d within 2x the summed regions %d" visits summed)
    true
    (visits >= summed && visits <= 2 * summed)

(* An irreducible loop: the switch enters the cycle a <-> b at both
   blocks, and b is a second routine entry as well, so neither block
   dominates the other and no visiting order makes the exit's region
   acyclic.  Whichever block the sweep visits first reads the other's
   value before it is recomputed, so one sweep is not the fixpoint: the
   b entry's label must carry a's definition of r3 around the cycle. *)
let test_labels_irreducible () =
  let cfg, edges =
    oracle_agrees
      [
        routine ~entries:[ "main$e"; "main$b" ] "main"
          [
            (Some "main$e", li r1 1);
            (None, switch r1 [ "a"; "main$b" ]);
            (Some "a", li r3 1);
            (None, br "main$b");
            (Some "main$b", use r2);
            (None, bne r1 "a");
            (None, ret);
          ];
      ]
  in
  let block_of label =
    Spike_cfg.Cfg.block_of_insn cfg
      (List.assoc label cfg.Spike_cfg.Cfg.routine.Spike_ir.Routine.labels)
  in
  let a = block_of "a" and b = block_of "main$b" in
  let has_arc x y = Array.mem y (Spike_cfg.Cfg.succs cfg x) in
  Alcotest.(check bool) "a <-> b" true (has_arc a b && has_arc b a);
  Alcotest.(check bool) "the switch enters at both" true (has_arc 0 a && has_arc 0 b);
  match
    List.filter
      (fun (e : Label_oracle.edge) ->
        e.src = Psg.Entry { routine = 0; label = "main$b" }
        && match e.dst with Psg.Exit _ -> true | _ -> false)
      edges
  with
  | [ e ] ->
      check_restricted "may-def around the cycle" ~over:(rs [ r1; r2; r3 ]) (rs [ r3 ])
        e.label.may_def;
      check_restricted "not on the direct path" ~over:(rs [ r1; r2; r3 ]) Regset.empty
        e.label.must_def;
      check_restricted "may-use" ~over:(rs [ r1; r2; r3 ]) (rs [ r1; r2 ])
        e.label.may_use
  | _ -> Alcotest.fail "one edge from the b entry to the exit"

(* --- Callee_saved --------------------------------------------------------- *)

let frame_push n = (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -n })
let frame_pop n = (None, Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = n })
let save r off = (None, store r ~base:Reg.sp ~offset:off)
let restore r off = (None, load r ~base:Reg.sp ~offset:off)

let detected rows =
  let r = routine "f" rows in
  Callee_saved.saved_and_restored r (Spike_cfg.Cfg.build r)

let test_callee_saved_positive () =
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        save Reg.s1 8;
        (None, li Reg.s0 1);
        (None, li Reg.s1 2);
        restore Reg.s0 0;
        restore Reg.s1 8;
        frame_pop 16;
        (None, ret);
      ]
  in
  Alcotest.check regset "s0 and s1 detected" (rs [ Reg.s0; Reg.s1 ]) got;
  (* Without any frame adjustment at all. *)
  let got =
    detected [ save Reg.s3 0; (None, li Reg.s3 9); restore Reg.s3 0; (None, ret) ]
  in
  Alcotest.check regset "frameless idiom" (rs [ Reg.s3 ]) got

let test_callee_saved_negative () =
  let check_empty msg rows = Alcotest.check regset msg Regset.empty (detected rows) in
  check_empty "missing restore"
    [ frame_push 16; save Reg.s0 0; (None, li Reg.s0 1); frame_pop 16; (None, ret) ];
  check_empty "restore from wrong slot"
    [ frame_push 16; save Reg.s0 0; restore Reg.s0 8; frame_pop 16; (None, ret) ];
  check_empty "redefined after restore"
    [
      frame_push 16; save Reg.s0 0; restore Reg.s0 0; (None, li Reg.s0 3); frame_pop 16;
      (None, ret);
    ];
  check_empty "slot stored twice"
    [
      frame_push 16;
      save Reg.s0 0;
      (None, store r1 ~base:Reg.sp ~offset:0);
      restore Reg.s0 0;
      frame_pop 16;
      (None, ret);
    ];
  check_empty "saved after definition"
    [ frame_push 16; (None, li Reg.s0 1); save Reg.s0 0; restore Reg.s0 0; frame_pop 16;
      (None, ret) ];
  check_empty "unbalanced frame"
    [ frame_push 16; save Reg.s0 0; restore Reg.s0 0; frame_pop 8; (None, ret) ];
  check_empty "caller-saved register"
    [ frame_push 16; save Reg.t0 0; restore Reg.t0 0; frame_pop 16; (None, ret) ];
  (* An unknown jump can leave without restoring. *)
  check_empty "unknown jump"
    [
      frame_push 16;
      save Reg.s0 0;
      (None, beq r1 "out");
      restore Reg.s0 0;
      frame_pop 16;
      (None, ret);
      (Some "out", Insn.Jump_unknown { target = r2 });
    ]

let test_callee_saved_multi_exit () =
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        (None, li Reg.s0 1);
        (None, beq r1 "second");
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
        (Some "second", load Reg.s0 ~base:Reg.sp ~offset:0);
        frame_pop 16;
        (None, ret);
      ]
  in
  Alcotest.check regset "restored at both exits" (rs [ Reg.s0 ]) got;
  (* One exit missing the restore disqualifies. *)
  let got =
    detected
      [
        frame_push 16;
        save Reg.s0 0;
        (None, beq r1 "second");
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
        (Some "second", Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
        (None, ret);
      ]
  in
  Alcotest.check regset "one bad exit disqualifies" Regset.empty got

let test_callee_saved_sites () =
  let r =
    routine "f"
      [
        frame_push 16;
        save Reg.s2 8;
        (None, li Reg.s2 1);
        restore Reg.s2 8;
        frame_pop 16;
        (None, ret);
      ]
  in
  match Callee_saved.sites r (Spike_cfg.Cfg.build r) with
  | [ site ] ->
      Alcotest.(check int) "reg" Reg.s2 site.Callee_saved.reg;
      Alcotest.(check int) "save at 1" 1 site.Callee_saved.save_index;
      Alcotest.(check (list int)) "restore at 3" [ 3 ] site.Callee_saved.restore_indexes
  | sites -> Alcotest.failf "expected one site, got %d" (List.length sites)

(* --- §3.4 effect on summaries --------------------------------------------- *)

let test_filter_in_summaries () =
  let callee =
    routine "callee"
      [
        frame_push 16;
        save Reg.s0 0;
        (None, li Reg.s0 7);
        (None, store Reg.s0 ~base:Reg.sp ~offset:8);
        restore Reg.s0 0;
        frame_pop 16;
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "callee"); (None, ret) ] in
  let analysis = Analysis.run (program ~main:"main" [ main; callee ]) in
  let c = (Option.get (Analysis.summary_of analysis "callee")).Summary.call_class in
  Alcotest.(check bool) "s0 not call-killed" false (Regset.mem Reg.s0 c.Summary.killed);
  Alcotest.(check bool) "s0 not call-used" false (Regset.mem Reg.s0 c.Summary.used);
  Alcotest.(check bool) "s0 not call-defined" false
    (Regset.mem Reg.s0 c.Summary.defined)

(* --- Call-site summary merging -------------------------------------------- *)

let test_site_class_merging () =
  (* An indirect call that may reach f (defines t0, uses a0) or g (defines
     t1): used = union, defined = intersection, killed = union. *)
  let f = routine "f" [ (None, use Reg.a0); (None, li Reg.t0 1); (None, li Reg.v0 1); (None, ret) ] in
  let g = routine "g" [ (None, li Reg.t1 2); (None, li Reg.v0 2); (None, ret) ] in
  let main =
    routine "main"
      [
        (None, li Reg.pv 0);
        (None, call_indirect ~targets:[ "f"; "g" ] Reg.pv);
        (None, ret);
      ]
  in
  let analysis = Analysis.run (program ~main:"main" [ main; f; g ]) in
  let site = Analysis.site_class analysis 0 in
  Alcotest.(check bool) "a0 used (from f)" true (Regset.mem Reg.a0 site.Summary.used);
  Alcotest.(check bool) "v0 defined (both)" true (Regset.mem Reg.v0 site.Summary.defined);
  Alcotest.(check bool) "t0 not must-defined (only f)" false
    (Regset.mem Reg.t0 site.Summary.defined);
  Alcotest.(check bool) "t0 killed" true (Regset.mem Reg.t0 site.Summary.killed);
  Alcotest.(check bool) "t1 killed" true (Regset.mem Reg.t1 site.Summary.killed)

let test_unknown_site_class () =
  let main =
    routine "main" [ (None, li Reg.pv 0); (None, call_indirect Reg.pv); (None, ret) ]
  in
  let analysis = Analysis.run (program ~main:"main" [ main ]) in
  let site = Analysis.site_class analysis 0 in
  Alcotest.check regset "assumed used" Calling_standard.unknown_call_used
    site.Summary.used;
  Alcotest.check regset "assumed defined" Calling_standard.unknown_call_defined
    site.Summary.defined;
  Alcotest.check regset "assumed killed" Calling_standard.unknown_call_killed
    site.Summary.killed

(* --- Recursion ------------------------------------------------------------ *)

let test_recursion_converges () =
  let analysis = Analysis.run (even_odd_program ()) in
  let even_class = (Option.get (Analysis.summary_of analysis "even")).Summary.call_class in
  check_restricted "even may-kill r2 r3" ~over:(rs [ r1; r2; r3 ])
    (rs [ r2; r3 ])
    even_class.Summary.killed;
  check_restricted "even uses r1" ~over:(rs [ r1; r2; r3 ])
    (rs [ r1 ])
    even_class.Summary.used;
  (* Nothing is must-defined: each routine can return from its base case
     defining only one of r2/r3. *)
  check_restricted "even must-def" ~over:(rs [ r2; r3 ]) Regset.empty
    even_class.Summary.defined;
  (* Agreement with the reference holds on recursion too. *)
  let reference = Spike_reference.Reference.run analysis.Analysis.program in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = reference.Spike_reference.Reference.call_classes.(r) in
      Alcotest.check regset "recursive used" d.Summary.used c.Summary.used;
      Alcotest.check regset "recursive defined" d.Summary.defined c.Summary.defined;
      Alcotest.check regset "recursive killed" d.Summary.killed c.Summary.killed)
    analysis.Analysis.call_classes

let test_deep_call_chain () =
  (* A 100_000-deep linear call chain.  The call-graph SCC pass and the
     schedule built on it walk one DFS path the full depth of the program
     here — a recursive implementation would need a native stack frame per
     routine, so both are required to be iterative. *)
  let depth = 100_000 in
  let name i = Printf.sprintf "f%d" i in
  let routines =
    List.init depth (fun i ->
        if i = depth - 1 then routine (name i) [ (None, li r2 1); (None, ret) ]
        else routine (name i) [ (None, call (name (i + 1))); (None, ret) ])
  in
  let p = program ~main:(name 0) routines in
  let a = Analysis.run p in
  (* The leaf's definition propagates the whole way up as a may-kill. *)
  let c = (Option.get (Analysis.summary_of a (name 0))).Summary.call_class in
  check_restricted "chain killed" ~over:(rs [ r2 ]) (rs [ r2 ]) c.Summary.killed;
  let scc = Psg.call_scc a.Analysis.psg in
  Alcotest.(check int) "components cover every routine" depth
    (Array.fold_left (fun n m -> n + Array.length m) 0 scc.Scc.members);
  Alcotest.(check int) "chain is acyclic" depth scc.Scc.count;
  Alcotest.(check (list string))
    "schedule = list-based schedule oracle" []
    (Test_helpers.Sched_oracle.mismatches a.Analysis.psg (Sched.make a.Analysis.psg))

let test_on_demand_schedule_agrees () =
  (* The phases called without [~sched] on a fresh PSG build their
     schedule on demand, as perfbench's [phases.fifo_s] replay calls
     them.  They must reach the same (unique) fixpoint as [Analysis.run]'s
     stage-built schedule: same call classes, PSG sets and iteration
     counts, on straight-line calls and on a recursion knot alike. *)
  List.iter
    (fun (label, p) ->
      let a = Analysis.run p in
      let psg = Psg_build.build p (cfgs_of a) (defuses_of a) in
      let it1 = Phase1.run psg in
      let classes = Summary.extract_call_classes psg in
      let it2 = Phase2.run psg in
      Alcotest.(check string)
        (label ^ ": identical PSG solutions")
        (Format.asprintf "%a" Psg.pp a.Analysis.psg)
        (Format.asprintf "%a" Psg.pp psg);
      Alcotest.(check int) (label ^ ": phase 1 iterations") a.Analysis.phase1_iterations it1;
      Alcotest.(check int) (label ^ ": phase 2 iterations") a.Analysis.phase2_iterations it2;
      Array.iteri
        (fun r (c : Summary.call_class) ->
          let d = a.Analysis.call_classes.(r) in
          Alcotest.check regset (label ^ ": used") d.Summary.used c.Summary.used;
          Alcotest.check regset (label ^ ": defined") d.Summary.defined
            c.Summary.defined;
          Alcotest.check regset (label ^ ": killed") d.Summary.killed
            c.Summary.killed)
        classes)
    [ ("figure2", figure2_program ()); ("mutual recursion", even_odd_program ()) ]

(* --- Analysis determinism / misc ------------------------------------------ *)

let test_analysis_deterministic () =
  let p = figure2_program () in
  let a = Analysis.run p and b = Analysis.run p in
  Array.iteri
    (fun r (c : Summary.call_class) ->
      let d = b.Analysis.call_classes.(r) in
      Alcotest.check regset "used" d.Summary.used c.Summary.used;
      Alcotest.check regset "defined" d.Summary.defined c.Summary.defined;
      Alcotest.check regset "killed" d.Summary.killed c.Summary.killed)
    a.Analysis.call_classes;
  Alcotest.(check int) "same phase1 iterations" b.Analysis.phase1_iterations
    a.Analysis.phase1_iterations

let test_psg_stats () =
  let analysis = Analysis.run (figure2_program ()) in
  let stats = Psg_stats.of_psg analysis.Analysis.psg in
  Alcotest.(check int) "entries = routines" 4 stats.Psg_stats.entry_nodes;
  Alcotest.(check int) "calls" 4 stats.Psg_stats.call_nodes;
  Alcotest.(check int) "returns" 4 stats.Psg_stats.return_nodes;
  Alcotest.(check int) "call-return edges" 4 stats.Psg_stats.call_return_edges;
  Alcotest.(check int) "total nodes" (Psg.node_count analysis.Analysis.psg)
    stats.Psg_stats.nodes;
  Alcotest.(check int) "edge split"
    (stats.Psg_stats.flow_edges + stats.Psg_stats.call_return_edges)
    stats.Psg_stats.edges

let test_multi_entry_summaries () =
  let two =
    routine ~entries:[ "two$a"; "two$b" ] "two"
      [ (Some "two$a", li r1 1); (Some "two$b", li r2 2); (None, ret) ]
  in
  let main = routine "main" [ (None, call "two"); (None, ret) ] in
  let analysis = Analysis.run (program ~main:"main" [ main; two ]) in
  let s = Option.get (Analysis.summary_of analysis "two") in
  Alcotest.(check int) "two live-at-entry sets" 2 (List.length s.Summary.live_at_entry);
  (* The primary entry sees both defs, the secondary only the second. *)
  let c = s.Summary.call_class in
  check_restricted "primary must-def" ~over:(rs [ r1; r2 ]) (rs [ r1; r2 ])
    c.Summary.defined;
  let secondary = List.nth (Psg.entry_node_list analysis.Analysis.psg 1) 1 in
  check_restricted "secondary must-def" ~over:(rs [ r1; r2 ]) (rs [ r2 ])
    analysis.Analysis.psg.Psg.sets.((3 * secondary) + 2)

(* [Psg_build.fragment] is the inverse of the stitch: on every routine it
   gives back the local pass's fragment, and stitching the fragments
   gives back the PSG's shape and flow labels bit for bit, with the
   call-return labels at their start value. *)
let test_fragment_inverts_stitch () =
  let vortex =
    let row = Option.get (Spike_synth.Calibrate.find "vortex") in
    let p = Spike_synth.Calibrate.params_of ~scale:0.04 row in
    Spike_synth.Generator.generate
      { p with Spike_synth.Params.seed = 1; guard_calls = true; unknown_jump_prob = 0.0 }
  in
  let programs =
    List.map
      (fun seed ->
        ( Printf.sprintf "synth %d" seed,
          Spike_synth.Generator.generate { Spike_synth.Params.default with seed } ))
      [ 1; 7; 23 ]
    @ [ ("vortex", vortex); ("figure 2", figure2_program ()) ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun branch_nodes ->
          let tag s = Printf.sprintf "%s, branch nodes %b: %s" name branch_nodes s in
          let a = Analysis.run ~jobs:1 ~branch_nodes p in
          let psg = a.Analysis.psg in
          let resolve_targets = Psg_build.resolver ~externals:Psg.no_externals p in
          let fragments =
            Array.init (Spike_ir.Program.routine_count p) (Psg_build.fragment psg)
          in
          Array.iteri
            (fun r fragment ->
              let local =
                Psg_build.local_pass ~branch_nodes ~resolve_targets r (Analysis.cfg a r)
                  (Analysis.defuse a r)
              in
              if fragment <> local then
                Alcotest.failf "%s: routine %d: fragment <> local pass" (tag "fragments") r)
            fragments;
          let stitched = Psg_build.stitch ~entry_filters:psg.Psg.entry_filter p fragments in
          Alcotest.(check bool) (tag "kinds") true (stitched.Psg.kinds = psg.Psg.kinds);
          Alcotest.(check (array int)) (tag "out-edge offsets") psg.Psg.out_off
            stitched.Psg.out_off;
          Alcotest.(check (array int)) (tag "dst") psg.Psg.dst stitched.Psg.dst;
          Alcotest.(check (array int)) (tag "call nodes") psg.Psg.call_node
            stitched.Psg.call_node;
          Alcotest.(check (array int)) (tag "target rows") psg.Psg.target_off
            stitched.Psg.target_off;
          Alcotest.(check (array int)) (tag "targets") psg.Psg.targets stitched.Psg.targets;
          (* A stitch of the PSG's own rows is the stitch of its fragments. *)
          let rows =
            Psg_build.stitch_parts ~entry_filters:psg.Psg.entry_filter p
              (Array.init (Spike_ir.Program.routine_count p) (fun r ->
                   Psg_build.Rows (psg, r)))
          in
          let same_lanes (x : Psg.t) (y : Psg.t) =
            x.kinds = y.kinds && x.dst = y.dst && x.labels = y.labels
            && x.out_off = y.out_off && x.call_node = y.call_node
            && x.call_def = y.call_def && x.call_use = y.call_use && x.callee = y.callee
            && x.target_off = y.target_off && x.entry_nodes = y.entry_nodes
            && x.exit_nodes = y.exit_nodes && x.unknown_exit_nodes = y.unknown_exit_nodes
            && List.for_all
                 (fun c -> Psg.call_targets x c = Psg.call_targets y c)
                 (List.init (Psg.call_count x) Fun.id)
          in
          Alcotest.(check bool) (tag "rows") true (same_lanes rows stitched);
          let start = Edge_dataflow.top_must in
          for e = 0 to Psg.edge_count psg - 1 do
            let label (g : Psg.t) j = g.Psg.labels.((3 * e) + j) in
            let expected j =
              if Psg.tag psg (Test_helpers.edge_source psg e) = Psg.Kind.call then
                [| start.may_use; start.may_def; start.must_def |].(j)
              else label psg j
            in
            for j = 0 to 2 do
              if not (Regset.equal (expected j) (label stitched j)) then
                Alcotest.failf "%s: edge %d, set %d" (tag "labels") e j
            done
          done)
        [ true; false ])
    programs

let () =
  Alcotest.run "core-units"
    [
      ( "edge-dataflow",
        [
          Alcotest.test_case "algebra" `Quick test_edge_dataflow_algebra;
          Alcotest.test_case "loop convergence" `Quick test_edge_dataflow_loop;
          Alcotest.test_case "oracle: return block ends in a call" `Quick
            test_labels_return_ends_in_call;
          Alcotest.test_case "oracle: switch arms" `Quick test_labels_switch_arms;
          Alcotest.test_case "oracle: entry in a loop" `Quick test_labels_entry_in_loop;
          Alcotest.test_case "oracle: shared sink region" `Quick test_labels_shared_sink;
          Alcotest.test_case "oracle: irreducible region" `Quick test_labels_irreducible;
          Alcotest.test_case "long chain: one sweep, no recursion" `Quick test_long_chain;
          Alcotest.test_case "many small sinks" `Quick test_many_small_sinks;
        ] );
      ( "callee-saved",
        [
          Alcotest.test_case "positive" `Quick test_callee_saved_positive;
          Alcotest.test_case "negative" `Quick test_callee_saved_negative;
          Alcotest.test_case "multi-exit" `Quick test_callee_saved_multi_exit;
          Alcotest.test_case "sites" `Quick test_callee_saved_sites;
          Alcotest.test_case "filter in summaries" `Quick test_filter_in_summaries;
        ] );
      ( "call-sites",
        [
          Alcotest.test_case "target merging" `Quick test_site_class_merging;
          Alcotest.test_case "unknown assumption" `Quick test_unknown_site_class;
        ] );
      ( "fixpoints",
        [
          Alcotest.test_case "recursion" `Quick test_recursion_converges;
          Alcotest.test_case "deep call chain" `Quick test_deep_call_chain;
          Alcotest.test_case "on-demand vs stage-built schedule" `Quick
            test_on_demand_schedule_agrees;
          Alcotest.test_case "determinism" `Quick test_analysis_deterministic;
        ] );
      ( "structure",
        [
          Alcotest.test_case "psg stats" `Quick test_psg_stats;
          Alcotest.test_case "multiple entries" `Quick test_multi_entry_summaries;
          Alcotest.test_case "fragments invert the stitch" `Quick
            test_fragment_inverts_stitch;
        ] );
    ]
