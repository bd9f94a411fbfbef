(* Structural invariants of the PSG and semantic invariants of the
   summaries, checked over random generated programs. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

let programs () =
  List.map
    (fun seed ->
      Spike_synth.Generator.generate
        { Spike_synth.Params.default with Spike_synth.Params.seed = 300 + seed })
    (List.init 8 Fun.id)

let for_all_programs f = List.iter (fun p -> f p (Analysis.run p)) (programs ())

(* --- PSG structure --------------------------------------------------------- *)

let test_psg_node_counts () =
  for_all_programs (fun p analysis ->
      let psg = analysis.Analysis.psg in
      let stats = Psg_stats.of_psg psg in
      let entries = ref 0 and exits = ref 0 and calls = ref 0 and switches = ref 0 in
      Program.iter
        (fun r (routine : Routine.t) ->
          entries := !entries + List.length routine.Routine.entries;
          exits := !exits + Routine.exit_count routine;
          Array.iter
            (fun insn ->
              if Insn.is_call insn then incr calls;
              match insn with Insn.Switch _ -> incr switches | _ -> ())
            routine.Routine.insns;
          ignore r)
        p;
      Alcotest.(check int) "entry nodes" !entries stats.Psg_stats.entry_nodes;
      Alcotest.(check int) "exit nodes" !exits stats.Psg_stats.exit_nodes;
      Alcotest.(check int) "call nodes" !calls stats.Psg_stats.call_nodes;
      Alcotest.(check int) "return nodes" !calls stats.Psg_stats.return_nodes;
      Alcotest.(check int) "call-return edges" !calls stats.Psg_stats.call_return_edges;
      Alcotest.(check int) "branch nodes" !switches stats.Psg_stats.branch_nodes)

let test_psg_edge_endpoints () =
  for_all_programs (fun _ analysis ->
      let psg = analysis.Analysis.psg in
      List.iter
        (fun e ->
          let s = Test_helpers.edge_source psg e in
          let src = Psg.kind psg s and dst = Psg.kind psg psg.Psg.dst.(e) in
          (* Every edge stays within one routine. *)
          Alcotest.(check int) "same routine"
            (Psg.node_routine src) (Psg.node_routine dst);
          if Test_helpers.is_flow_edge psg e then begin
            (* Sources are entry/return/branch; sinks are
               call/exit/unknown-exit/branch. *)
            (match src with
            | Psg.Entry _ | Psg.Return _ | Psg.Branch _ -> ()
            | Psg.Exit _ | Psg.Call _ | Psg.Unknown_exit _ ->
                Alcotest.fail "flow edge from a sink");
            match dst with
            | Psg.Call _ | Psg.Exit _ | Psg.Unknown_exit _ | Psg.Branch _ -> ()
            | Psg.Entry _ | Psg.Return _ -> Alcotest.fail "flow edge into a source"
          end
          else
            (* A call node's only out-edge is its call-return edge. *)
            match dst with
            | Psg.Return _ ->
                Alcotest.(check int) "call node out-degree" 1
                  (psg.Psg.out_off.(s + 1) - psg.Psg.out_off.(s))
            | Psg.Entry _ | Psg.Exit _ | Psg.Call _ | Psg.Branch _ | Psg.Unknown_exit _ ->
                Alcotest.fail "call-return edge endpoints")
        (Test_helpers.edges_of psg))

let test_psg_adjacency_consistency () =
  for_all_programs (fun p analysis ->
      let psg = analysis.Analysis.psg in
      let n = Psg.node_count psg and m = Psg.edge_count psg in
      let check_csr what off adj endpoint =
        Alcotest.(check int) (what ^ " offsets") (n + 1) (Array.length off);
        Alcotest.(check int) (what ^ " count") m off.(n);
        (* Every edge appears exactly once, in the row of its endpoint,
           rows ascending by edge id. *)
        let seen = Array.make m false in
        for node = 0 to n - 1 do
          for k = off.(node) to off.(node + 1) - 1 do
            let e = adj.(k) in
            Alcotest.(check int) (what ^ " endpoint") node endpoint.(e);
            Alcotest.(check bool) (what ^ " once") false seen.(e);
            seen.(e) <- true;
            if k > off.(node) then
              Alcotest.(check bool) (what ^ " ascending") true (adj.(k - 1) < e)
          done
        done
      in
      (* Edges are numbered by source: the out-rows are consecutive, and
         each edge lies in the row of the source its routine's local pass
         gave it.  The reverse rows are the readers' (test_properties). *)
      let resolve_targets = Psg_build.resolver ~externals:Psg.no_externals p in
      let sources =
        Array.concat
          (List.init (Program.routine_count p) (fun r ->
               let local =
                 Psg_build.local_pass ~branch_nodes:true ~resolve_targets r
                   (Analysis.cfg analysis r) (Analysis.defuse analysis r)
               in
               Array.map (( + ) psg.Psg.first_node.(r)) local.Psg_build.l_src))
      in
      check_csr "out" psg.Psg.out_off (Array.init m Fun.id) sources)

let test_callers_of_consistency () =
  for_all_programs (fun _ analysis ->
      let psg = analysis.Analysis.psg in
      let readers = Readers.make psg in
      for call_index = 0 to Psg.call_count psg - 1 do
        match Psg.call_targets psg call_index with
        | None -> ()
        | Some targets ->
            List.iter
              (fun target ->
                match target with
                | Psg.Target_external _ -> ()
                | Psg.Target_routine r ->
                    if not (List.mem call_index (Readers.callers readers r)) then
                      Alcotest.failf "call %d missing from callers_of %d" call_index r)
              targets
      done)

(* --- Summary semantics ------------------------------------------------------ *)

let test_defined_subset_killed () =
  (* MUST-DEF ⊆ MAY-DEF, always. *)
  for_all_programs (fun _ analysis ->
      Array.iter
        (fun (c : Summary.call_class) ->
          if not (Regset.subset c.Summary.defined c.Summary.killed) then
            Alcotest.failf "call-defined ⊄ call-killed: %s vs %s"
              (Regset.to_string ~name:Reg.name c.Summary.defined)
              (Regset.to_string ~name:Reg.name c.Summary.killed))
        analysis.Analysis.call_classes)

let test_no_zero_registers_in_summaries () =
  let zeros = Calling_standard.zero_regs in
  for_all_programs (fun _ analysis ->
      Array.iter
        (fun (c : Summary.call_class) ->
          Alcotest.(check bool) "used" true (Regset.disjoint c.Summary.used zeros);
          Alcotest.(check bool) "defined" true (Regset.disjoint c.Summary.defined zeros);
          Alcotest.(check bool) "killed" true (Regset.disjoint c.Summary.killed zeros))
        analysis.Analysis.call_classes;
      Array.iter
        (fun (s : Summary.t) ->
          List.iter
            (fun (_, l) -> Alcotest.(check bool) "live-entry" true (Regset.disjoint l zeros))
            s.Summary.live_at_entry)
        analysis.Analysis.summaries)

let test_filter_disjoint_from_class () =
  (* A register filtered by §3.4 never shows up in the routine's exported
     class. *)
  for_all_programs (fun _ analysis ->
      Array.iteri
        (fun r (c : Summary.call_class) ->
          let mask = analysis.Analysis.psg.Psg.entry_filter.(r) in
          Alcotest.(check bool) "used clean" true (Regset.disjoint c.Summary.used mask);
          Alcotest.(check bool) "defined clean" true
            (Regset.disjoint c.Summary.defined mask);
          Alcotest.(check bool) "killed clean" true
            (Regset.disjoint c.Summary.killed mask))
        analysis.Analysis.call_classes)

let test_flow_edge_labels_exclude_zeros () =
  let zeros = Calling_standard.zero_regs in
  for_all_programs (fun _ analysis ->
      let psg = analysis.Analysis.psg in
      List.iter
        (fun e ->
          let label = Test_helpers.edge_label psg e in
          Alcotest.(check bool) "edge may_use" true
            (Regset.disjoint label.Edge_dataflow.may_use zeros);
          Alcotest.(check bool) "edge may_def" true
            (Regset.disjoint label.Edge_dataflow.may_def zeros))
        (Test_helpers.edges_of psg))

let () =
  Alcotest.run "invariants"
    [
      ( "psg",
        [
          Alcotest.test_case "node counts" `Quick test_psg_node_counts;
          Alcotest.test_case "edge endpoints" `Quick test_psg_edge_endpoints;
          Alcotest.test_case "adjacency consistency" `Quick test_psg_adjacency_consistency;
          Alcotest.test_case "callers_of" `Quick test_callers_of_consistency;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "defined ⊆ killed" `Quick test_defined_subset_killed;
          Alcotest.test_case "no zero registers" `Quick test_no_zero_registers_in_summaries;
          Alcotest.test_case "filter disjoint" `Quick test_filter_disjoint_from_class;
          Alcotest.test_case "edge labels clean" `Quick test_flow_edge_labels_exclude_zeros;
        ] );
    ]
