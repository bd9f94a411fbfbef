(* The ISA layer: register naming, instruction def/use semantics, block
   structure predicates, and the calling-standard register partition. *)

open Spike_support
open Spike_isa

let regset = Alcotest.testable (Regset.pp ~name:Reg.name) Regset.equal
let rs = Regset.of_list

(* --- Registers ----------------------------------------------------------- *)

let test_reg_names () =
  List.iter
    (fun r ->
      match Reg.of_name (Reg.name r) with
      | Some r' -> Alcotest.(check int) (Reg.name r) r r'
      | None -> Alcotest.failf "name %s does not parse" (Reg.name r))
    Reg.all;
  Alcotest.(check (option int)) "raw r26" (Some Reg.ra) (Reg.of_name "r26");
  Alcotest.(check (option int)) "raw $30" (Some Reg.sp) (Reg.of_name "$30");
  Alcotest.(check (option int)) "f17" (Some (Reg.freg 17)) (Reg.of_name "f17");
  Alcotest.(check (option int)) "garbage" None (Reg.of_name "r99");
  Alcotest.(check string) "v0 name" "v0" (Reg.name Reg.v0);
  Alcotest.(check string) "zero name" "zero" (Reg.name Reg.zero);
  Alcotest.(check bool) "zero is zero" true (Reg.is_zero Reg.zero);
  Alcotest.(check bool) "fzero is zero" true (Reg.is_zero Reg.fzero);
  Alcotest.(check bool) "v0 not zero" false (Reg.is_zero Reg.v0);
  Alcotest.(check bool) "f0 is float" true (Reg.is_float Reg.f0);
  Alcotest.(check bool) "sp is integer" true (Reg.is_integer Reg.sp);
  Alcotest.check_raises "freg bounds" (Invalid_argument "Reg.freg: $f32") (fun () ->
      ignore (Reg.freg 32))

(* --- Instruction def/use -------------------------------------------------- *)

let test_defs_uses () =
  let check name insn ~defs ~uses =
    Alcotest.check regset (name ^ " defs") defs (Insn.defs insn);
    Alcotest.check regset (name ^ " uses") uses (Insn.uses insn)
  in
  check "li" (Insn.Li { dst = Reg.t0; imm = 5 }) ~defs:(rs [ Reg.t0 ]) ~uses:Regset.empty;
  check "lda"
    (Insn.Lda { dst = Reg.t0; base = Reg.sp; offset = 8 })
    ~defs:(rs [ Reg.t0 ]) ~uses:(rs [ Reg.sp ]);
  check "mov" (Insn.Mov { dst = Reg.a0; src = Reg.t3 }) ~defs:(rs [ Reg.a0 ])
    ~uses:(rs [ Reg.t3 ]);
  check "binop reg"
    (Insn.Binop { op = Insn.Add; dst = Reg.v0; src1 = Reg.t0; src2 = Insn.Reg Reg.t1 })
    ~defs:(rs [ Reg.v0 ])
    ~uses:(rs [ Reg.t0; Reg.t1 ]);
  check "binop imm"
    (Insn.Binop { op = Insn.Sub; dst = Reg.v0; src1 = Reg.t0; src2 = Insn.Imm 3 })
    ~defs:(rs [ Reg.v0 ])
    ~uses:(rs [ Reg.t0 ]);
  check "load"
    (Insn.Load { dst = Reg.t2; base = Reg.sp; offset = 0 })
    ~defs:(rs [ Reg.t2 ]) ~uses:(rs [ Reg.sp ]);
  check "store"
    (Insn.Store { src = Reg.t2; base = Reg.sp; offset = 0 })
    ~defs:Regset.empty
    ~uses:(rs [ Reg.t2; Reg.sp ]);
  check "br" (Insn.Br { target = "l" }) ~defs:Regset.empty ~uses:Regset.empty;
  check "bcond"
    (Insn.Bcond { cond = Insn.Eq; src = Reg.t4; target = "l" })
    ~defs:Regset.empty ~uses:(rs [ Reg.t4 ]);
  check "switch"
    (Insn.Switch { index = Reg.t5; table = [| "a"; "b" |] })
    ~defs:Regset.empty ~uses:(rs [ Reg.t5 ]);
  check "jmp unknown" (Insn.Jump_unknown { target = Reg.t6 }) ~defs:Regset.empty
    ~uses:(rs [ Reg.t6 ]);
  check "direct call"
    (Insn.Call { callee = Insn.Direct "f" })
    ~defs:(rs [ Reg.ra ]) ~uses:Regset.empty;
  check "indirect call"
    (Insn.Call { callee = Insn.Indirect (Reg.pv, None) })
    ~defs:(rs [ Reg.ra ])
    ~uses:(rs [ Reg.pv ]);
  check "ret" Insn.Ret ~defs:Regset.empty ~uses:(rs [ Reg.ra ]);
  check "nop" Insn.Nop ~defs:Regset.empty ~uses:Regset.empty;
  (* The hardwired zeros carry no dataflow in either direction. *)
  check "write to zero" (Insn.Li { dst = Reg.zero; imm = 1 }) ~defs:Regset.empty
    ~uses:Regset.empty;
  check "read of zero"
    (Insn.Mov { dst = Reg.t0; src = Reg.zero })
    ~defs:(rs [ Reg.t0 ]) ~uses:Regset.empty

let test_block_structure () =
  let ends msg expected insn = Alcotest.(check bool) msg expected (Insn.ends_block insn) in
  ends "br ends" true (Insn.Br { target = "l" });
  ends "call ends" true (Insn.Call { callee = Insn.Direct "f" });
  ends "ret ends" true Insn.Ret;
  ends "li continues" false (Insn.Li { dst = Reg.t0; imm = 0 });
  let ft msg expected insn = Alcotest.(check bool) msg expected (Insn.falls_through insn) in
  ft "bcond falls through" true (Insn.Bcond { cond = Insn.Eq; src = Reg.t0; target = "l" });
  ft "call falls through" true (Insn.Call { callee = Insn.Direct "f" });
  ft "br does not" false (Insn.Br { target = "l" });
  ft "ret does not" false Insn.Ret;
  ft "switch does not" false (Insn.Switch { index = Reg.t0; table = [| "a" |] });
  Alcotest.(check (list string)) "switch targets" [ "a"; "b"; "c" ]
    (Insn.branch_targets (Insn.Switch { index = Reg.t0; table = [| "a"; "b"; "c" |] }));
  Alcotest.(check (list string)) "call targets empty" []
    (Insn.branch_targets (Insn.Call { callee = Insn.Direct "f" }))

let test_mnemonic_roundtrips () =
  List.iter
    (fun op ->
      match Insn.binop_of_name (Insn.binop_name op) with
      | Some op' when op = op' -> ()
      | Some _ | None -> Alcotest.failf "binop %s roundtrip" (Insn.binop_name op))
    [ Insn.Add; Insn.Sub; Insn.Mul; Insn.And; Insn.Or; Insn.Xor; Insn.Sll; Insn.Srl;
      Insn.Cmpeq; Insn.Cmplt; Insn.Cmple ];
  List.iter
    (fun c ->
      match Insn.cond_of_name (Insn.cond_name c) with
      | Some c' when c = c' -> ()
      | Some _ | None -> Alcotest.failf "cond %s roundtrip" (Insn.cond_name c))
    [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ]

(* [f31] is register 63: the one register a {!Regset} cannot hold.  It
   never needs to, because the DEF/USE of a hardwired zero is empty. *)
let test_fzero_outside_universe () =
  Alcotest.(check int) "fzero is register 63" 63 Reg.fzero;
  Alcotest.check_raises "Regset.add fzero raises"
    (Invalid_argument "Regset: register 63 out of range")
    (fun () -> ignore (Regset.add Reg.fzero Regset.empty));
  Alcotest.(check bool) "mem fzero" false (Regset.mem Reg.fzero Regset.full);
  Alcotest.check regset "remove fzero" Regset.full (Regset.remove Reg.fzero Regset.full);
  Alcotest.check regset "store fzero uses" (rs [ Reg.sp ])
    (Insn.uses (Insn.Store { src = Reg.fzero; base = Reg.sp; offset = 0 }));
  Alcotest.check regset "load into fzero defs" Regset.empty
    (Insn.defs (Insn.Load { dst = Reg.fzero; base = Reg.sp; offset = 0 }));
  Alcotest.check regset "mov fzero, fzero" Regset.empty
    (Regset.union
       (Insn.defs (Insn.Mov { dst = Reg.fzero; src = Reg.fzero }))
       (Insn.uses (Insn.Mov { dst = Reg.fzero; src = Reg.fzero })));
  Alcotest.check regset "zero_regs" (rs [ Reg.zero ]) Calling_standard.zero_regs

(* --- Calling standard ------------------------------------------------------ *)

let test_calling_standard () =
  let cs = Calling_standard.callee_saved in
  let caller = Calling_standard.caller_saved in
  let zeros = Calling_standard.zero_regs in
  Alcotest.(check bool) "callee/caller disjoint" true (Regset.disjoint cs caller);
  Alcotest.(check bool) "zeros disjoint from both" true
    (Regset.disjoint zeros (Regset.union cs caller));
  Alcotest.check regset "partition covers all registers" Regset.full
    (Regset.union zeros (Regset.union cs caller));
  Alcotest.(check bool) "s0 callee-saved" true (Regset.mem Reg.s0 cs);
  Alcotest.(check bool) "sp callee-saved" true (Regset.mem Reg.sp cs);
  Alcotest.(check bool) "f2 callee-saved" true (Regset.mem (Reg.freg 2) cs);
  Alcotest.(check bool) "ra caller-saved" true (Regset.mem Reg.ra caller);
  Alcotest.(check bool) "args are caller-saved" true
    (Regset.subset Calling_standard.argument_regs caller);
  Alcotest.(check bool) "returns are caller-saved" true
    (Regset.subset Calling_standard.return_regs caller);
  Alcotest.(check bool) "unknown kills all caller-saved" true
    (Regset.equal Calling_standard.unknown_call_killed caller);
  Alcotest.(check bool) "unknown-used includes args" true
    (Regset.subset Calling_standard.argument_regs Calling_standard.unknown_call_used);
  Alcotest.(check bool) "unknown-jump-live is everything allocatable" true
    (Regset.equal Calling_standard.unknown_jump_live Calling_standard.all_allocatable)

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [
          Alcotest.test_case "names" `Quick test_reg_names;
          Alcotest.test_case "f31 outside the regset universe" `Quick
            test_fzero_outside_universe;
        ] );
      ( "insn",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "block structure" `Quick test_block_structure;
          Alcotest.test_case "mnemonic roundtrips" `Quick test_mnemonic_roundtrips;
        ] );
      ( "calling-standard",
        [ Alcotest.test_case "register partition" `Quick test_calling_standard ] );
    ]
