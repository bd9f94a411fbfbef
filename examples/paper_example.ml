(* A guided tour of the Program Summary Graph on the paper's Figure 4 CFG:
   one routine with a diamond and a call, showing the PSG nodes, the
   flow-summary edges with their MUST-DEF / MAY-DEF / MAY-USE labels
   (Figures 5-7), and the effect of branch nodes on the Figure 12 example.

     dune exec examples/paper_example.exe *)

open Spike_isa
open Spike_ir
open Spike_core

let r1 = Reg.t0
let r2 = Reg.t1
let r3 = Reg.t2

(* Figure 4(a): bb1 branches to bb2/bb3; bb3 calls f and returns into bb4;
   bb2 flows into bb4; bb4 is the exit. *)
let g_routine =
  let b = Builder.create "g" in
  (* bb1: uses R1, defines R2 *)
  Builder.emit b (Insn.Store { src = r1; base = Reg.sp; offset = 0 });
  Builder.emit b (Insn.Li { dst = r2; imm = 1 });
  Builder.emit b (Insn.Bcond { cond = Insn.Eq; src = r2; target = "bb3" });
  (* bb2: defines R3 *)
  Builder.emit b (Insn.Li { dst = r3; imm = 2 });
  Builder.emit b (Insn.Br { target = "bb4" });
  (* bb3: defines R1, calls f *)
  Builder.label b "bb3";
  Builder.emit b (Insn.Li { dst = r1; imm = 4 });
  Builder.emit b (Insn.Call { callee = Insn.Direct "f" });
  (* bb4: exit *)
  Builder.label b "bb4";
  Builder.emit b Insn.Ret;
  Builder.finish b

let f_routine =
  let b = Builder.create "f" in
  Builder.emit b (Insn.Li { dst = r2; imm = 0 });
  Builder.emit b Insn.Ret;
  Builder.finish b

let main_routine =
  let b = Builder.create "main" in
  Builder.emit b (Insn.Call { callee = Insn.Direct "g" });
  Builder.emit b Insn.Ret;
  Builder.finish b

(* Figure 12: a multiway branch in a loop with a call at each target. *)
let switchy =
  let b = Builder.create "dispatch" in
  Builder.label b "head";
  Builder.emit b (Insn.Switch { index = r1; table = [| "tA"; "tB"; "tC"; "out" |] });
  List.iter
    (fun arm ->
      Builder.label b arm;
      Builder.emit b (Insn.Call { callee = Insn.Direct "f" });
      Builder.emit b (Insn.Br { target = "head" }))
    [ "tA"; "tB"; "tC" ];
  Builder.label b "out";
  Builder.emit b Insn.Ret;
  Builder.finish b

let flow_edges analysis name =
  let psg = analysis.Analysis.psg in
  match Program.find_index analysis.Analysis.program name with
  | None -> 0
  | Some r ->
      let n = ref 0 in
      for s = psg.Psg.first_node.(r) to psg.Psg.first_node.(r + 1) - 1 do
        (* A call node's only out-edge is its call-return edge. *)
        if Psg.tag psg s <> Psg.Kind.call then
          n := !n + psg.Psg.out_off.(s + 1) - psg.Psg.out_off.(s)
      done;
      !n

let () =
  let program = Program.make ~main:"main" [ main_routine; g_routine; f_routine ] in
  let analysis = Analysis.run program in
  Format.printf "=== The PSG for the Figure 4 routine and its neighbours@.";
  Format.printf "%a@." Psg.pp analysis.Analysis.psg;
  Format.printf
    "Note routine g: four nodes (entry, exit, call, return) and three@.\
     flow-summary edges E_A entry->exit, E_B entry->call, E_C return->exit,@.\
     each labelled with the dataflow of the CFG subgraph it summarizes@.\
     (Figures 4-7 of the paper).@.";
  (* Branch nodes: Figure 12. *)
  let program12 =
    Program.make ~main:"main"
      [ main_routine; switchy; f_routine ]
  in
  let with_bn = Analysis.run ~branch_nodes:true program12 in
  let without = Analysis.run ~branch_nodes:false program12 in
  Format.printf "@.=== Figure 12: branch nodes at the 4-way dispatch@.";
  Format.printf "flow-summary edges without branch nodes: %d@."
    (flow_edges without "dispatch");
  Format.printf "flow-summary edges with branch nodes:    %d@."
    (flow_edges with_bn "dispatch");
  Format.printf
    "(every return reaches every call through the dispatch: O(n^2) edges@.\
     collapse to O(n) through the branch node, with identical dataflow)@."
