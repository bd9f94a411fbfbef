(* CFG construction: block partitioning (including the ends-at-call rule),
   arcs, orders, and DEF/UBD computation — validated against a naive
   per-instruction simulation on random programs. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Test_helpers

let regset = Alcotest.testable (Regset.pp ~name:Reg.name) Regset.equal

let diamond_with_call () =
  routine "g"
    [
      (None, use r1);
      (None, li r2 1);
      (None, beq r2 "bb3");
      (None, li r3 2);
      (None, br "bb4");
      (Some "bb3", li r1 4);
      (None, call "f");
      (Some "bb4", ret);
    ]

let test_partition () =
  let g = Cfg.build (diamond_with_call ()) in
  Alcotest.(check int) "four blocks" 4 (Cfg.block_count g);
  (* Blocks tile the instruction stream. *)
  let covered = Array.make 8 (-1) in
  for b = 0 to Cfg.block_count g - 1 do
    for i = Cfg.first g b to Cfg.last g b do
      if covered.(i) <> -1 then Alcotest.failf "instruction %d in two blocks" i;
      covered.(i) <- b
    done
  done;
  Array.iteri
    (fun i owner -> if owner = -1 then Alcotest.failf "instruction %d uncovered" i)
    covered;
  Alcotest.(check (list int)) "block_of_insn matches" (Array.to_list covered)
    (List.init 8 (Cfg.block_of_insn g));
  (* The call ends its block; the return point starts the next. *)
  (match (Cfg.ending g 2, Cfg.callee g 2) with
  | Ends_call, Insn.Direct "f" -> ()
  | _ -> Alcotest.fail "block 2 should end with the call");
  Alcotest.(check int) "call block ends at call" 6 (Cfg.last g 2);
  Alcotest.(check int) "return point" 3 (Cfg.return_block g 2);
  (match Cfg.ending g 3 with
  | Ends_ret -> ()
  | _ -> Alcotest.fail "block 3 should be the exit");
  Alcotest.(check (list int)) "exit blocks" [ 3 ] (Cfg.exit_blocks g);
  Alcotest.(check int) "one call site" 1 (List.length (Cfg.call_sites g));
  Alcotest.(check int) "branch instructions" 2 (Cfg.branch_instruction_count g)

let test_arcs_symmetry () =
  for seed = 0 to 9 do
    let p = Spike_synth.Generator.generate { Spike_synth.Params.default with seed } in
    Program.iter
      (fun _ r ->
        let g = Cfg.build r in
        for b = 0 to Cfg.block_count g - 1 do
          Cfg.iter_succs
            (fun s ->
              if not (Array.mem b (Cfg.preds g s)) then
                Alcotest.failf "%s: arc B%d->B%d missing reverse" r.Routine.name b s)
            g b;
          Cfg.iter_preds
            (fun pr ->
              if not (Array.mem b (Cfg.succs g pr)) then
                Alcotest.failf "%s: pred B%d of B%d missing forward" r.Routine.name pr b)
            g b
        done)
      p
  done

let test_reverse_postorder () =
  let g = Cfg.build (diamond_with_call ()) in
  let rpo = Cfg.reverse_postorder g in
  Alcotest.(check int) "covers all blocks" (Cfg.block_count g) (Array.length rpo);
  let position = Array.make (Cfg.block_count g) 0 in
  Array.iteri (fun i b -> position.(b) <- i) rpo;
  (* For this acyclic CFG, RPO is a topological order. *)
  for b = 0 to Cfg.block_count g - 1 do
    Cfg.iter_succs
      (fun s ->
        if position.(s) <= position.(b) then
          Alcotest.failf "B%d before its predecessor B%d" s b)
      g b
  done

(* DEF/UBD against a straightforward per-instruction simulation. *)
let naive_def_ubd (r : Routine.t) g b =
  let last = Cfg.last g b in
  let upper = if Insn.is_call r.insns.(last) then last - 1 else last in
  let def = ref Regset.empty and ubd = ref Regset.empty in
  for i = Cfg.first g b to upper do
    Regset.iter
      (fun reg -> if not (Regset.mem reg !def) then ubd := Regset.add reg !ubd)
      (Insn.uses r.insns.(i));
    Regset.iter (fun reg -> def := Regset.add reg !def) (Insn.defs r.insns.(i))
  done;
  (!def, !ubd)

let test_defuse_matches_naive () =
  for seed = 0 to 9 do
    let p = Spike_synth.Generator.generate { Spike_synth.Params.default with seed } in
    Program.iter
      (fun _ r ->
        let g = Cfg.build r in
        let du = Defuse.compute g in
        for b = 0 to Cfg.block_count g - 1 do
          let def, ubd = naive_def_ubd r g b in
          Alcotest.check regset (Printf.sprintf "%s B%d def" r.Routine.name b) def
            (Defuse.def du b);
          Alcotest.check regset (Printf.sprintf "%s B%d ubd" r.Routine.name b) ubd
            (Defuse.ubd du b)
        done)
      p
  done

let test_switch_and_unknown_blocks () =
  let r =
    routine "s"
      [
        (Some "head", switch r1 [ "a"; "b" ]);
        (Some "a", li r2 1);
        (None, br "head");
        (Some "b", Insn.Jump_unknown { target = r3 });
      ]
  in
  let g = Cfg.build r in
  (match Cfg.ending g 0 with
  | Ends_switch -> ()
  | _ -> Alcotest.fail "switch block");
  Alcotest.(check (list int)) "unknown jump blocks" [ 2 ] (Cfg.unknown_jump_blocks g);
  Alcotest.(check (list int)) "no exits" [] (Cfg.exit_blocks g);
  (* Switch successors are deduplicated and ordered. *)
  Alcotest.(check (list int)) "switch succs" [ 1; 2 ]
    (List.sort Int.compare (Array.to_list (Cfg.succs g 0)))

(* Duplicate arcs collapse in first-named order: a switch naming one
   target twice, a conditional branch to its own fallthrough, and a
   fallthrough into a block the switch also names.  The lanes must match
   the record oracle arc for arc, predecessors included. *)
let test_duplicate_arcs () =
  let r =
    routine "d"
      [
        (Some "head", switch r1 [ "b"; "a"; "b"; "a" ]);
        (Some "a", beq r2 "b");
        (Some "b", li r3 1);
        (None, bne r3 "head");
        (None, call "f");
        (None, ret);
      ]
  in
  let g = Cfg.build r in
  Alcotest.(check (list int)) "switch arcs, deduplicated in table order" [ 2; 1 ]
    (Array.to_list (Cfg.succs g 0));
  Alcotest.(check (list int)) "branch to the fallthrough is one arc" [ 2 ]
    (Array.to_list (Cfg.succs g 1));
  Alcotest.(check (list int)) "predecessors ascending" [ 0; 1 ]
    (Array.to_list (Cfg.preds g 2));
  Alcotest.(check (list string)) "record oracle" []
    (Record_cfg.mismatches g (Defuse.compute g));
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "callee of a non-call block" true
    (raises (fun () -> Cfg.callee g 0));
  Alcotest.(check bool) "return block of a non-call block" true
    (raises (fun () -> Cfg.return_block g 4))

let test_multiple_entries () =
  let r =
    routine ~entries:[ "e1"; "e2" ] "m"
      [ (Some "e1", li r1 1); (Some "e2", li r2 2); (None, ret) ]
  in
  let g = Cfg.build r in
  Alcotest.(check int) "entry blocks" 2 (Cfg.entry_count g);
  Alcotest.(check (option int)) "e2 at block 1" (Some 1)
    (List.assoc_opt "e2" (entry_blocks g))

(* Every read names a block, arc slot or entry inside its own lane: one
   past either end raises, even where the packed buffer holds a
   neighbouring lane's word at that offset. *)
let test_out_of_range () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun r ->
      let g = Cfg.build r in
      let du = Defuse.compute g in
      let n = Cfg.block_count g in
      List.iter
        (fun b ->
          let at what = Printf.sprintf "%s %s B%d" r.Routine.name what b in
          raises (at "first") (fun () -> Cfg.first g b);
          raises (at "last") (fun () -> Cfg.last g b);
          raises (at "ending") (fun () -> Cfg.ending g b);
          raises (at "succs") (fun () -> Cfg.succs g b);
          raises (at "iter_succs") (fun () -> Cfg.iter_succs ignore g b);
          raises (at "succ_start") (fun () -> Cfg.succ_start g b);
          raises (at "succ_stop") (fun () -> Cfg.succ_stop g b);
          raises (at "def") (fun () -> Defuse.def du b);
          raises (at "ubd") (fun () -> Defuse.ubd du b))
        [ -1; n ];
      List.iter
        (fun i -> raises "entry_block" (fun () -> Cfg.entry_block g i))
        [ -1; Cfg.entry_count g ];
      List.iter
        (fun k -> raises "succ_at" (fun () -> Cfg.succ_at g k))
        [ -1; Cfg.arc_count g ];
      (* The last block, arc and entry are in range. *)
      ignore (Cfg.first g (n - 1), Cfg.last g (n - 1), Cfg.ending g (n - 1));
      ignore (Defuse.def du (n - 1), Defuse.ubd du (n - 1));
      ignore (Cfg.succ_at g (Cfg.arc_count g - 1));
      ignore (Cfg.entry_block g (Cfg.entry_count g - 1)))
    [
      diamond_with_call ();
      routine ~entries:[ "e1"; "e2" ] "m"
        [ (Some "e1", li r1 1); (Some "e2", beq r2 "e1"); (None, ret) ];
    ]

(* The packed layout's size, pinned: apart from its routine a CFG is a
   five-word record and one buffer of 32-bit words (block starts and
   successor offsets, [n + 1] each; one per arc; one per entry) followed
   by one ending byte per block, and a [Defuse.t] is one array of two
   words per block.  A per-routine header or lane added back shows up
   here. *)
let test_packed_size () =
  let words_of_bytes len = 1 + ((len + 8) / 8) in
  let check_program file =
    let program =
      Spike_asm.Parser.program_of_file
        (if Sys.file_exists ("../" ^ file) then "../" ^ file else file)
    in
    Program.iter
      (fun _ r ->
        let g = Cfg.build r in
        let n = Cfg.block_count g and a = Cfg.arc_count g and e = Cfg.entry_count g in
        let what = Printf.sprintf "%s: %s" file r.Routine.name in
        Alcotest.(check int)
          (what ^ " CFG words")
          (5 + words_of_bytes ((4 * ((2 * (n + 1)) + a + e)) + n))
          (Obj.reachable_words (Obj.repr g) - Obj.reachable_words (Obj.repr r));
        Alcotest.(check int)
          (what ^ " DEF/UBD words")
          (1 + (2 * n))
          (Obj.reachable_words (Obj.repr (Defuse.compute g))))
      program
  in
  List.iter check_program
    [
      "examples/fact.s";
      "examples/mutual.s";
      "examples/libc_calls.s";
      "test/golden/gcc_small.s";
    ]

let () =
  Alcotest.run "cfg"
    [
      ( "structure",
        [
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "arc symmetry" `Quick test_arcs_symmetry;
          Alcotest.test_case "reverse postorder" `Quick test_reverse_postorder;
          Alcotest.test_case "switch + unknown" `Quick test_switch_and_unknown_blocks;
          Alcotest.test_case "multiple entries" `Quick test_multiple_entries;
          Alcotest.test_case "duplicate arcs" `Quick test_duplicate_arcs;
          Alcotest.test_case "out-of-range reads raise" `Quick test_out_of_range;
          Alcotest.test_case "packed size" `Quick test_packed_size;
        ] );
      ( "defuse",
        [ Alcotest.test_case "matches naive simulation" `Quick test_defuse_matches_naive ]
      );
    ]
