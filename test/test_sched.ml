(* The phase schedule.

   [Sched.make] must build exactly the schedule of the list-based
   construction ([Test_helpers.Sched_oracle]) — component numbering,
   dependency-SCC orders, SCC ends and call lists alike — whether or not
   a pool builds the two phase orders.  A long dependency knot must be
   one SCC span, swept as a whole, and still reach the reference
   fixpoint. *)

open Spike_support
open Spike_ir
open Spike_core
open Spike_synth
open Test_helpers

let check_oracle ~jobs name (psg : Psg.t) =
  List.iter
    (fun jobs ->
      let sched = Pool.with_pool ~jobs (fun pool -> Sched.make ~pool psg) in
      match Sched_oracle.mismatches psg sched with
      | [] -> ()
      | fields ->
          Alcotest.failf "%s (jobs %d): schedule differs from the oracle in %s" name jobs
            (String.concat ", " fields))
    jobs

let calibrated name scale =
  let row = Option.get (Calibrate.find name) in
  Generator.generate (Calibrate.params_of ~scale row)

let test_calibrated () =
  List.iter
    (fun (name, scale) ->
      let p = calibrated name scale in
      List.iter
        (fun branch_nodes ->
          let a = Analysis.run ~jobs:1 ~branch_nodes p in
          check_oracle ~jobs:[ 1; 2 ]
            (Printf.sprintf "%s @ %g, branch nodes %b" name scale branch_nodes)
            a.Analysis.psg)
        [ true; false ])
    [ ("gcc", 0.05); ("acad", 0.02) ]

let example path =
  Spike_asm.Parser.program_of_file
    (if Sys.file_exists ("../" ^ path) then "../" ^ path else path)

let test_mutual () =
  let a = Analysis.run ~jobs:1 (example "examples/mutual.s") in
  check_oracle ~jobs:[ 1; 2 ] "examples/mutual.s" a.Analysis.psg;
  let sched = Sched.make a.Analysis.psg in
  Alcotest.(check bool)
    "the even/odd recursion is one component" true
    (Scc.largest sched.Sched.scc >= 2)

(* One routine whose switches form a two-way chain: block [Si] dispatches
   to [S(i-1)] and [S(i+1)], the ends to the return.  Its branch nodes
   read both neighbours, so the chain is one dependency knot. *)
let switch_chain k =
  let label i = if i = 0 || i > k then "out" else Printf.sprintf "s%d" i in
  let rows =
    ((None, li r1 1) :: List.init k (fun i ->
         let i = i + 1 in
         (Some (label i), switch r1 [ label (i - 1); label (i + 1) ])))
    @ [ (Some "out", li r0 0); (None, ret) ]
  in
  let main =
    routine "main" [ (None, li r2 7); (None, call "chain"); (None, use r0); (None, ret) ]
  in
  program ~main:"main" [ main; routine "chain" rows ]

(* The SCC spans of a component's order, as [(start, end)] pairs. *)
let spans ends =
  let rec go a acc =
    if a >= Array.length ends then List.rev acc else go ends.(a) ((a, ends.(a)) :: acc)
  in
  go 0 []

let test_chain_knot () =
  let k = 120 in
  let p = switch_chain k in
  let a = Analysis.run ~jobs:1 p in
  let psg = a.Analysis.psg in
  check_oracle ~jobs:[ 1 ] "switch chain" psg;
  let sched = Sched.make psg in
  let chain = 1 in
  let c = sched.Sched.scc.Scc.comp_of.(chain) in
  Alcotest.(check int) "chain is a component of its own" 1
    (Array.length sched.Sched.scc.Scc.members.(c));
  List.iter
    (fun (phase, ends) ->
      match List.filter (fun (a, e) -> e - a > 1) (spans ends.(c)) with
      | [ (a, e) ] when e - a >= k -> ()
      | knots ->
          Alcotest.failf "%s: expected the chain as one SCC span of >= %d nodes, got %s"
            phase k
            (String.concat "; "
               (List.map (fun (a, e) -> Printf.sprintf "[%d, %d)" a e) knots)))
    [ ("phase 1", sched.Sched.comp_ends_p1); ("phase 2", sched.Sched.comp_ends_p2) ];
  let reference = Spike_reference.Reference.run p in
  Program.iter
    (fun r (routine : Routine.t) ->
      let name = routine.Routine.name in
      let got = a.Analysis.call_classes.(r)
      and want = reference.Spike_reference.Reference.call_classes.(r) in
      check_regset (name ^ " call-used") want.Summary.used got.Summary.used;
      check_regset (name ^ " call-defined") want.Summary.defined got.Summary.defined;
      check_regset (name ^ " call-killed") want.Summary.killed got.Summary.killed;
      match a.Analysis.summaries.(r).Summary.live_at_entry with
      | (_, live) :: _ ->
          check_regset (name ^ " live-at-entry")
            reference.Spike_reference.Reference.live_at_entry.(r)
            live
      | [] -> ())
    p

let () =
  Alcotest.run "sched"
    [
      ( "oracle",
        [
          Alcotest.test_case "calibrated gcc and acad" `Quick test_calibrated;
          Alcotest.test_case "examples/mutual.s" `Quick test_mutual;
        ] );
      ( "knots",
        [ Alcotest.test_case "switch chain is one SCC span" `Quick test_chain_knot ] );
    ]
