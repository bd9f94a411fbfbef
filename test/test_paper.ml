(* Reproduction of the paper's worked examples: the Figure 2/3 summary
   sets, the Figure 4-7 PSG construction, the Figure 9 phase-1 results,
   the Figure 11 phase-2 results, and the Figure 12 branch-node edge
   reduction. *)

open Spike_support
open Spike_core
open Test_helpers

let r0123 = rs [ r0; r1; r2; r3 ]

let class_of analysis name =
  match Analysis.summary_of analysis name with
  | Some s -> s.Summary.call_class
  | None -> Alcotest.failf "no summary for %s" name

let summary_of analysis name =
  match Analysis.summary_of analysis name with
  | Some s -> s
  | None -> Alcotest.failf "no summary for %s" name

(* --- Figures 2, 3, 9: call-used / call-defined / call-killed ---------- *)

let test_figure2_call_sets () =
  let analysis = Analysis.run (figure2_program ()) in
  let p2 = class_of analysis "P2" in
  check_restricted "P2 call-used" ~over:r0123 (rs [ r1 ]) p2.Summary.used;
  check_restricted "P2 call-defined" ~over:r0123 (rs [ r2 ]) p2.Summary.defined;
  check_restricted "P2 call-killed" ~over:r0123 (rs [ r2; r3 ]) p2.Summary.killed;
  let p1 = class_of analysis "P1" in
  check_restricted "P1 call-used" ~over:r0123 Regset.empty p1.Summary.used;
  check_restricted "P1 call-defined" ~over:r0123 (rs [ r0; r1; r2 ]) p1.Summary.defined;
  check_restricted "P1 call-killed" ~over:r0123 (rs [ r0; r1; r2; r3 ]) p1.Summary.killed;
  let p3 = class_of analysis "P3" in
  check_restricted "P3 call-used" ~over:r0123 Regset.empty p3.Summary.used;
  check_restricted "P3 call-defined" ~over:r0123 (rs [ r1; r2 ]) p3.Summary.defined;
  check_restricted "P3 call-killed" ~over:r0123 (rs [ r1; r2; r3 ]) p3.Summary.killed

(* --- Figure 11: live-at-entry / live-at-exit -------------------------- *)

let test_figure2_liveness () =
  let analysis = Analysis.run (figure2_program ()) in
  let p2 = summary_of analysis "P2" in
  (match p2.Summary.live_at_entry with
  | [ (_, live) ] ->
      check_restricted "P2 live-at-entry" ~over:r0123 (rs [ r0; r1 ]) live
  | _ -> Alcotest.fail "P2 should have one entry");
  (match p2.Summary.live_at_exit with
  | [ (_, live) ] -> check_restricted "P2 live-at-exit" ~over:r0123 (rs [ r0 ]) live
  | _ -> Alcotest.fail "P2 should have one exit");
  (* R0 is live at P1's return point (used there) but not at P3's. *)
  let p1 = summary_of analysis "P1" in
  match p1.Summary.live_at_entry with
  | [ (_, live) ] -> check_restricted "P1 live-at-entry" ~over:r0123 Regset.empty live
  | _ -> Alcotest.fail "P1 should have one entry"

(* --- Figures 4-7: PSG construction on the one-call diamond ------------ *)

(* Figure 4's CFG: bb1 branches to bb2 and bb3; bb3 ends with a call whose
   return point is bb4; bb2 also flows into bb4; bb4 returns.
   Contents are chosen to pin down the three flow-summary edge labels:
   bb1 uses R1 then defines R2; bb2 defines R3; bb3 defines R1; bb4 empty. *)
let figure4_program () =
  let f = routine "f" [ (None, li r2 0); (None, ret) ] in
  let g =
    routine "g"
      [
        (None, use r1);
        (None, li r2 1);
        (None, beq r2 "bb3");
        (* bb2 *)
        (None, li r3 2);
        (None, br "bb4");
        (* bb3 *)
        (Some "bb3", li r1 4);
        (None, call "f");
        (* bb4: the call's return point and the exit *)
        (Some "bb4", ret);
      ]
  in
  let main = routine "main" [ (None, call "g"); (None, ret) ] in
  program ~main:"main" [ main; g; f ]

let find_g_psg analysis =
  let psg = analysis.Analysis.psg in
  let g_index =
    match Spike_ir.Program.find_index analysis.Analysis.program "g" with
    | Some i -> i
    | None -> Alcotest.fail "routine g missing"
  in
  (psg, g_index)

let test_figure4_psg_shape () =
  let analysis = Analysis.run (figure4_program ()) in
  let psg, g = find_g_psg analysis in
  (* Nodes of g: entry, exit, call, return — exactly four (Figure 4b). *)
  let g_nodes =
    List.init (Psg.node_count psg) (Psg.kind psg)
    |> List.filter (fun kind -> Psg.node_routine kind = g)
  in
  Alcotest.(check int) "g has 4 PSG nodes" 4 (List.length g_nodes);
  (* Edges within g: E_A entry->exit, E_B entry->call, E_C return->exit,
     plus the call-return edge. *)
  let g_edges = edges_of ~routine:g psg in
  Alcotest.(check int) "g has 4 PSG edges" 4 (List.length g_edges);
  let flow_edges = List.filter (is_flow_edge psg) g_edges in
  Alcotest.(check int) "g has 3 flow-summary edges" 3 (List.length flow_edges)

let edge_between psg ~src_kind ~dst_kind =
  let matches kind_pred node_id = kind_pred (Psg.kind psg node_id) in
  match
    edges_of psg
    |> List.filter (fun e ->
           is_flow_edge psg e
           && matches src_kind (Test_helpers.edge_source psg e)
           && matches dst_kind psg.Psg.dst.(e))
  with
  | [ e ] -> edge_label psg e
  | [] -> Alcotest.fail "expected edge missing"
  | _ -> Alcotest.fail "expected edge not unique"

let test_figure7_edge_labels () =
  let analysis = Analysis.run (figure4_program ()) in
  let psg, g = find_g_psg analysis in
  let is_entry = function Psg.Entry { routine; _ } -> routine = g | _ -> false in
  let is_exit = function Psg.Exit { routine; _ } -> routine = g | _ -> false in
  let is_call = function Psg.Call { routine; _ } -> routine = g | _ -> false in
  let is_return = function Psg.Return { routine; _ } -> routine = g | _ -> false in
  (* E_A = entry -> exit over blocks {1, 2, 4}. *)
  let e_a = edge_between psg ~src_kind:is_entry ~dst_kind:is_exit in
  check_restricted "E_A may-use" ~over:r0123 (rs [ r1 ]) e_a.Edge_dataflow.may_use;
  check_restricted "E_A may-def" ~over:r0123 (rs [ r2; r3 ]) e_a.may_def;
  check_restricted "E_A must-def" ~over:r0123 (rs [ r2; r3 ]) e_a.must_def;
  (* E_B = entry -> call over blocks {1, 3}. *)
  let e_b = edge_between psg ~src_kind:is_entry ~dst_kind:is_call in
  check_restricted "E_B may-use" ~over:r0123 (rs [ r1 ]) e_b.Edge_dataflow.may_use;
  check_restricted "E_B may-def" ~over:r0123 (rs [ r1; r2 ]) e_b.may_def;
  check_restricted "E_B must-def" ~over:r0123 (rs [ r1; r2 ]) e_b.must_def;
  (* E_C = return -> exit over block {4} alone: empty sets. *)
  let e_c = edge_between psg ~src_kind:is_return ~dst_kind:is_exit in
  check_restricted "E_C may-use" ~over:r0123 Regset.empty e_c.Edge_dataflow.may_use;
  check_restricted "E_C may-def" ~over:r0123 Regset.empty e_c.may_def;
  check_restricted "E_C must-def" ~over:r0123 Regset.empty e_c.must_def

(* --- Figure 12: branch nodes cut switch-induced edge blow-up ---------- *)

(* A multiway branch in a loop with a call at each target: every return
   node reaches every call node again through the dispatch. *)
let figure12_program () =
  let f = routine "f" [ (None, li r2 0); (None, ret) ] in
  let g =
    routine "g"
      [
        (Some "head", switch r1 [ "tA"; "tB"; "tC"; "out" ]);
        (Some "tA", call "f");
        (None, br "head");
        (Some "tB", call "f");
        (None, br "head");
        (Some "tC", call "f");
        (None, br "head");
        (Some "out", ret);
      ]
  in
  let main = routine "main" [ (None, call "g"); (None, ret) ] in
  program ~main:"main" [ main; g; f ]

let flow_edges_of_routine analysis name =
  let psg = analysis.Analysis.psg in
  let r =
    match Spike_ir.Program.find_index analysis.Analysis.program name with
    | Some i -> i
    | None -> Alcotest.failf "routine %s missing" name
  in
  edges_of ~routine:r psg |> List.filter (is_flow_edge psg) |> List.length

let test_figure12_branch_nodes () =
  let without = Analysis.run ~branch_nodes:false (figure12_program ()) in
  let with_bn = Analysis.run ~branch_nodes:true (figure12_program ()) in
  (* Without branch nodes: sources {entry, 3 returns} each reach sinks
     {3 calls, exit} through the dispatch: 16 flow edges.  With a branch
     node: entry->branch, 3 returns->branch, branch->{3 calls, exit}: 8. *)
  Alcotest.(check int) "without branch nodes" 16 (flow_edges_of_routine without "g");
  Alcotest.(check int) "with branch nodes" 8 (flow_edges_of_routine with_bn "g");
  (* Branch nodes must not change the dataflow solution. *)
  let c_without = class_of without "g" and c_with = class_of with_bn "g" in
  check_regset "call-used unchanged" c_without.Summary.used c_with.Summary.used;
  check_regset "call-defined unchanged" c_without.Summary.defined c_with.Summary.defined;
  check_regset "call-killed unchanged" c_without.Summary.killed c_with.Summary.killed

let () =
  Alcotest.run "paper-examples"
    [
      ( "figure2-3-9",
        [
          Alcotest.test_case "call sets" `Quick test_figure2_call_sets;
          Alcotest.test_case "liveness" `Quick test_figure2_liveness;
        ] );
      ( "figure4-7",
        [
          Alcotest.test_case "psg shape" `Quick test_figure4_psg_shape;
          Alcotest.test_case "edge labels" `Quick test_figure7_edge_labels;
        ] );
      ( "figure12",
        [ Alcotest.test_case "branch nodes" `Quick test_figure12_branch_nodes ] );
    ]
