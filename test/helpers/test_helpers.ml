(* Shared helpers for the test suites. *)

open Spike_support
open Spike_isa
open Spike_ir

let regset_testable =
  Alcotest.testable (Regset.pp ~name:Reg.name) Regset.equal

let check_regset = Alcotest.check regset_testable

(* Check equality of a set restricted to the registers of interest — the
   paper's examples speak only about abstract registers R0..R3, while our
   IR adds real [ra]/[sp] traffic around calls and returns. *)
let check_restricted msg ~over expected actual =
  check_regset msg expected (Regset.inter actual over)

let rs = Regset.of_list

(* Instruction shorthands used throughout the tests.  Registers R0..R3 of
   the paper's examples map to v0, t0, t1, t2. *)
let r0 = Reg.v0
let r1 = Reg.t0
let r2 = Reg.t1
let r3 = Reg.t2

let li dst imm = Insn.Li { dst; imm }
let mov ~src ~dst = Insn.Mov { dst; src }
let add dst src1 src2 = Insn.Binop { op = Insn.Add; dst; src1; src2 = Insn.Reg src2 }
let load dst ~base ~offset = Insn.Load { dst; base; offset }
let store src ~base ~offset = Insn.Store { src; base; offset }
let use r = store r ~base:Reg.sp ~offset:0 (* an instruction that only reads [r] *)
let br target = Insn.Br { target }
let beq src target = Insn.Bcond { cond = Insn.Eq; src; target }
let bne src target = Insn.Bcond { cond = Insn.Ne; src; target }
let switch index table = Insn.Switch { index; table = Array.of_list table }
let call name = Insn.Call { callee = Insn.Direct name }
let call_indirect ?targets reg = Insn.Call { callee = Insn.Indirect (reg, targets) }
let ret = Insn.Ret

(* Assemble a routine from (label option, insn) rows. *)
let routine ?exported ?entries name rows =
  let labels = ref [] and insns = ref [] in
  List.iteri
    (fun i (label, insn) ->
      (match label with Some l -> labels := (l, i) :: !labels | None -> ());
      insns := insn :: !insns)
    rows;
  let entries =
    match entries with
    | Some e -> e
    | None ->
        let l = name ^ "$entry" in
        labels := (l, 0) :: !labels;
        [ l ]
  in
  Routine.make ?exported ~name ~entries ~labels:(List.rev !labels)
    (Array.of_list (List.rev !insns))

let program ~main routines =
  let p = Program.make ~main routines in
  (match Validate.check p with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "test program ill-formed:@ %s" (String.concat "; " problems));
  p

(* The paper's Figure 2 example: P1 and P3 both call P2.
   P1: defines R0 and R1, calls P2, uses R0 afterwards.
   P2: uses R1, defines R2 on both arms of a diamond, R3 on one arm.
   P3: defines R1, calls P2.
   main calls P1 and P3. *)
let figure2_program () =
  let p1 =
    routine "P1"
      [ (None, li r0 1); (None, li r1 2); (None, call "P2"); (None, use r0); (None, ret) ]
  in
  let p2 =
    routine "P2"
      [
        (None, bne r1 "P2_right");
        (None, li r2 5);
        (None, li r3 7);
        (None, br "P2_join");
        (Some "P2_right", li r2 9);
        (Some "P2_join", ret);
      ]
  in
  let p3 = routine "P3" [ (None, li r1 3); (None, call "P2"); (None, ret) ] in
  let main = routine "main" [ (None, call "P1"); (None, call "P3"); (None, ret) ] in
  program ~main:"main" [ main; p1; p2; p3 ]

(* Mutually recursive even/odd with a conditional escape: main calls even,
   even and odd call each other, and each base case defines one of R2/R3. *)
let even_odd_program () =
  let even =
    routine "even"
      [
        (None, beq r1 "base");
        (None, call "odd");
        (None, ret);
        (Some "base", li r2 1);
        (None, ret);
      ]
  in
  let odd =
    routine "odd"
      [
        (None, beq r1 "base");
        (None, call "even");
        (None, ret);
        (Some "base", li r3 1);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "even"); (None, ret) ] in
  program ~main:"main" [ main; even; odd ]
