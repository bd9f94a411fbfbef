(* The golden PSG dump, shared by psg_dump.exe and paper_scale.exe: every
   node, out-edge, converged solution, call target and per-routine node
   list of one analysed program, in a text form that does not depend on
   how the graph is stored, then the cold run's phase iteration counts
   and call-return label updates. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

let pr = Regset.pp ~name:Reg.name

type run = { program : Program.t; analysis : Analysis.t; cr_updates : int }

(* A cold serial analysis of [file], counting call-return label updates. *)
let analyse ?(externals = Psg.no_externals) file =
  let program = Spike_asm.Parser.program_of_file file in
  Spike_obs.Metrics.enable ();
  let analysis = Analysis.run ~jobs:1 ~externals program in
  let cr_updates =
    match Spike_obs.Metrics.(find (snapshot ()) "phase1.cr_edge_updates") with
    | Some (Spike_obs.Metrics.Count k) -> k
    | _ -> 0
  in
  { program; analysis; cr_updates }

let print ppf { program; analysis = a; cr_updates } =
  let psg = a.Analysis.psg in
  let rname r = (Program.get program r).Routine.name in
  Format.fprintf ppf "psg: %d nodes, %d edges, %d calls@." (Psg.node_count psg)
    (Psg.edge_count psg) (Psg.call_count psg);
  for n = 0 to Psg.node_count psg - 1 do
    let kind =
      match Psg.kind psg n with
      | Psg.Entry { routine; label } -> Printf.sprintf "entry %s %s" (rname routine) label
      | Psg.Exit { routine; block } -> Printf.sprintf "exit %s B%d" (rname routine) block
      | Psg.Call { routine; block } -> Printf.sprintf "call %s B%d" (rname routine) block
      | Psg.Return { routine; call_block; block } ->
          Printf.sprintf "return %s B%d (call B%d)" (rname routine) block call_block
      | Psg.Branch { routine; block } -> Printf.sprintf "branch %s B%d" (rname routine) block
      | Psg.Unknown_exit { routine; block } ->
          Printf.sprintf "unknown_exit %s B%d" (rname routine) block
    in
    let s = psg.Psg.sets in
    Format.fprintf ppf "N%d %s@.  p1 may-use=%a may-def=%a must-def=%a@.  live=%a@." n
      kind pr s.(3 * n) pr s.((3 * n) + 1) pr s.((3 * n) + 2) pr psg.Psg.live.(n);
    Psg.iter_out_edges psg n (fun e ->
        let l = psg.Psg.labels in
        Format.fprintf ppf "  -> N%d may-use=%a may-def=%a must-def=%a@." psg.Psg.dst.(e)
          pr l.(3 * e) pr l.((3 * e) + 1) pr l.((3 * e) + 2))
  done;
  for c = 0 to Psg.call_count psg - 1 do
    let targets =
      match Psg.call_targets psg c with
      | None -> "unresolved"
      | Some ts ->
          String.concat " "
            (List.map
               (function
                 | Psg.Target_routine r -> rname r
                 | Psg.Target_external x ->
                     Format.asprintf "external(used=%a defined=%a killed=%a)" pr
                       x.Psg.x_used pr x.Psg.x_defined pr x.Psg.x_killed)
               ts)
    in
    Format.fprintf ppf "call C%d at N%d: %s@." c psg.Psg.call_node.(c) targets
  done;
  let ids l = String.concat " " (List.map (Printf.sprintf "N%d") l) in
  let readers = Readers.make psg in
  for r = 0 to Program.routine_count program - 1 do
    Format.fprintf ppf "routine %s@.  callers: %s@.  entries: %s@.  exits: %s@.  unknown exits: %s@."
      (rname r)
      (String.concat " " (List.map (Printf.sprintf "C%d") (Readers.callers readers r)))
      (ids (Psg.entry_node_list psg r))
      (ids (Psg.exit_node_list psg r))
      (ids (Psg.unknown_exit_node_list psg r))
  done;
  Format.fprintf ppf "phase 1: %d iterations, %d call-return updates@.phase 2: %d iterations@."
    a.Analysis.phase1_iterations cr_updates a.Analysis.phase2_iterations
