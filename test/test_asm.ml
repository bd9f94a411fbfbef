(* The assembly front-end: print/parse round-trips (hand-written and
   generator-produced programs), every instruction form, and error
   reporting with line numbers. *)

open Spike_isa
open Spike_ir

let program_eq a b =
  String.equal (Spike_asm.Printer.to_string a) (Spike_asm.Printer.to_string b)

let roundtrip msg p =
  let text = Spike_asm.Printer.to_string p in
  let p' = Spike_asm.Parser.program_of_string text in
  if not (program_eq p p') then
    Alcotest.failf "%s: roundtrip mismatch@.first print:@.%s@.reparsed print:@.%s" msg
      text
      (Spike_asm.Printer.to_string p')

(* One routine exercising every instruction form the printer can emit. *)
let kitchen_sink =
  let b = Builder.create ~exported:true "sink" in
  Builder.emit b (Insn.Li { dst = Reg.t0; imm = -5 });
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -32 });
  Builder.emit b (Insn.Mov { dst = Reg.a0; src = Reg.t0 });
  Builder.emit b (Insn.Binop { op = Insn.Add; dst = Reg.v0; src1 = Reg.t0; src2 = Insn.Reg Reg.t1 });
  Builder.emit b (Insn.Binop { op = Insn.Sll; dst = Reg.v0; src1 = Reg.v0; src2 = Insn.Imm 3 });
  Builder.emit b (Insn.Load { dst = Reg.t2; base = Reg.sp; offset = 8 });
  Builder.emit b (Insn.Store { src = Reg.t2; base = Reg.sp; offset = 16 });
  Builder.emit b (Insn.Bcond { cond = Insn.Ge; src = Reg.t2; target = "skip" });
  Builder.emit b (Insn.Switch { index = Reg.t3; table = [| "skip"; "other" |] });
  Builder.label b "other";
  Builder.emit b (Insn.Call { callee = Insn.Direct "ext" });
  Builder.emit b (Insn.Call { callee = Insn.Indirect (Reg.pv, None) });
  Builder.emit b (Insn.Call { callee = Insn.Indirect (Reg.pv, Some [ "a"; "b" ]) });
  Builder.emit b Insn.Nop;
  Builder.label b "skip";
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 32 });
  Builder.emit b (Insn.Jump_unknown { target = Reg.t4 });
  Builder.finish b

let test_kitchen_sink () =
  roundtrip "kitchen sink" (Program.make ~main:"sink" [ kitchen_sink ])

let test_multi_entry_and_exports () =
  let b = Builder.create ~exported:true "m" in
  Builder.declare_entry b "m$a";
  Builder.label b "m$a";
  Builder.emit b (Insn.Li { dst = Reg.t0; imm = 1 });
  Builder.declare_entry b "m$b";
  Builder.label b "m$b";
  Builder.emit b Insn.Ret;
  let r = Builder.finish b in
  let p = Program.make ~main:"m" [ r ] in
  roundtrip "multi-entry exported" p;
  let reparsed = Spike_asm.Parser.program_of_string (Spike_asm.Printer.to_string p) in
  match Program.find reparsed "m" with
  | Some m ->
      Alcotest.(check (list string)) "entries survive" [ "m$a"; "m$b" ] m.Routine.entries;
      Alcotest.(check bool) "exported survives" true m.Routine.exported
  | None -> Alcotest.fail "routine lost"

let test_generated_roundtrip () =
  for seed = 0 to 9 do
    let p =
      Spike_synth.Generator.generate { Spike_synth.Params.default with seed }
    in
    roundtrip (Printf.sprintf "generated seed %d" seed) p
  done;
  (* Also the analysis-only shapes with unknown jumps. *)
  let p =
    Spike_synth.Generator.generate
      {
        Spike_synth.Params.default with
        seed = 77;
        unknown_jump_prob = 0.4;
        guard_calls = false;
      }
  in
  roundtrip "unknown-jump workload" p

let expect_error ~line text =
  match Spike_asm.Parser.program_of_string text with
  | _ -> Alcotest.failf "expected a parse error at line %d" line
  | exception Spike_asm.Parser.Error e ->
      Alcotest.(check int) "error line" line e.line

let test_errors () =
  expect_error ~line:1 "bogus";
  expect_error ~line:2 ".main m\n.routine\n";
  expect_error ~line:3 ".main m\n.routine m\n  li xyzzy, 1\n.end\n";
  expect_error ~line:3 ".main m\n.routine m\n  frobnicate t0\n.end\n";
  expect_error ~line:4 ".main m\n.routine m\n  ret\n  jsr ra, (pv), [a,\n.end\n";
  expect_error ~line:3 ".main m\n.routine m\n  li t0, 99999999999999999999999\n.end\n";
  expect_error ~line:0 ".main m\n.routine m\n  ret\n";
  (* unterminated routine *)
  expect_error ~line:0 "";
  (* no .main *)
  expect_error ~line:3 ".main m\n.routine m\n.routine n\n.end\n.end\n"

let expect_message ~line ~message text =
  match Spike_asm.Parser.program_of_string text with
  | _ -> Alcotest.failf "expected %S at line %d" message line
  | exception Spike_asm.Parser.Error e ->
      Alcotest.(check (pair int string)) "error" (line, message) (e.line, e.message)

let single_insn text =
  let p = Spike_asm.Parser.program_of_string text in
  (Option.get (Program.find p "m")).Routine.insns.(0)

let in_routine body = ".main m\n.routine m\n" ^ body ^ "\n  ret\n.end\n"
let insn_testable = Alcotest.testable Insn.pp ( = )

(* Edge cases of the cursor lexer: line endings, comments glued to tokens,
   the integer range, raw register spellings, names longer than a packed
   name key, and errors reported at the first offending line. *)
let test_lexer_edges () =
  let crlf = ".main m\r\n.routine m\r\n  li t0, 1\r\n  ret\r\n.end\r\n" in
  Alcotest.(check int) "CRLF" 2
    (Program.instruction_count (Spike_asm.Parser.program_of_string crlf));
  expect_error ~line:3 ".main m\r\n.routine m\r\n  li xyzzy, 1\r\n.end\r\n";
  Alcotest.(check int) "no trailing newline" 1
    (Program.instruction_count
       (Spike_asm.Parser.program_of_string ".main m\n.routine m\n  ret\n.end"));
  expect_message ~line:5 ~message:"expected .main or .routine"
    ".main m\n.routine m\n  ret\n.end\nbogus";
  let glued =
    ".main m#c\n.routine m .exported#c\n.entry e#c\ne:#c\n  ret#c\n.end#c\n"
  in
  (match Program.find (Spike_asm.Parser.program_of_string glued) "m" with
  | Some r ->
      Alcotest.(check (list string)) "entry after comment" [ "e" ] r.Routine.entries;
      Alcotest.(check (list (pair string int))) "label before comment" [ ("e", 0) ]
        r.Routine.labels;
      Alcotest.(check bool) "exported before comment" true r.Routine.exported
  | None -> Alcotest.fail "routine lost");
  let li imm = Insn.Li { dst = Reg.t0; imm } in
  Alcotest.check insn_testable "min_int" (li min_int)
    (single_insn (in_routine "  li t0, -4611686018427387904"));
  Alcotest.check insn_testable "max_int" (li max_int)
    (single_insn (in_routine "  li t0, 4611686018427387903"));
  expect_message ~line:3 ~message:"integer 4611686018427387904 out of range"
    (in_routine "  li t0, 4611686018427387904");
  expect_message ~line:3 ~message:"integer -4611686018427387905 out of range"
    (in_routine "  li t0, -4611686018427387905");
  Alcotest.check insn_testable "19 digits" (li 1_000_000_000_000_000_000)
    (single_insn (in_routine "  li t0, 1000000000000000000"));
  Alcotest.check insn_testable "22 digits, leading zeros" (li (-42))
    (single_insn (in_routine "  li t0, -0000000000000000000042"));
  Alcotest.check insn_testable "raw spellings"
    (Insn.Mov { dst = Reg.t4; src = Reg.t4 })
    (single_insn (in_routine "  mov r5, $5"));
  expect_message ~line:3 ~message:"unknown register r05" (in_routine "  mov r05, t0");
  expect_message ~line:3 ~message:"unknown register t0xxxxxxx"
    (in_routine "  li t0xxxxxxx, 1");
  expect_message ~line:3 ~message:"unknown register zeroooooo"
    (in_routine "  mov t0, zeroooooo");
  expect_message ~line:3 ~message:"unknown mnemonic cmpeqxyz"
    (in_routine "  cmpeqxyz t0, t1, t2");
  expect_message ~line:3 ~message:"unknown mnemonic switchxx"
    (in_routine "  switchxx t0, l");
  expect_message ~line:3 ~message:"cannot parse switchxx instruction"
    (in_routine "  switchxx t0, [l]");
  expect_message ~line:3 ~message:"expected an instruction" (in_routine ".main n");
  (* The first offending line in source order wins, even when a later
     line holds a lexical error. *)
  expect_message ~line:1 ~message:"expected .main or .routine" "bogus\n.main m\n@\n";
  expect_message ~line:2 ~message:"unexpected character '@'" ".main m\n@\nbogus\n"

(* The byte-class scanner's paths and the parser's label interning:
   integers at the edge of direct accumulation, a minus that starts no
   integer, a comment that ends the file, CRLF lines, [$] registers, names
   one byte past a packed name key, and long labels used before they are
   defined. *)
let test_lexer_paths () =
  let li imm = Insn.Li { dst = Reg.t0; imm } in
  Alcotest.check insn_testable "18 digits" (li 999_999_999_999_999_999)
    (single_insn (in_routine "  li t0, 999999999999999999"));
  Alcotest.check insn_testable "-18 digits" (li (-999_999_999_999_999_999))
    (single_insn (in_routine "  li t0, -999999999999999999"));
  Alcotest.check insn_testable "19 digits, max_int" (li max_int)
    (single_insn (in_routine "  li t0, 4611686018427387903"));
  Alcotest.check insn_testable "19 digits, leading zero" (li 123)
    (single_insn (in_routine "  li t0, 0000000000000000123"));
  expect_message ~line:3 ~message:"integer 9999999999999999999 out of range"
    (in_routine "  li t0, 9999999999999999999");
  expect_message ~line:3 ~message:"unexpected character '-'" (in_routine "  li t0, -x");
  expect_message ~line:3 ~message:"unexpected character '-'" (in_routine "  li t0, - 1");
  expect_message ~line:3 ~message:"unexpected character '-'" ".main m\n.routine m\n  li t0, -";
  Alcotest.(check int) "comment ends the file" 1
    (Program.instruction_count
       (Spike_asm.Parser.program_of_string ".main m\n.routine m\n  ret\n.end # done"));
  Alcotest.(check int) "bare comment ends the file" 1
    (Program.instruction_count
       (Spike_asm.Parser.program_of_string ".main m\n.routine m\n  ret\n.end\n#"));
  let crlf =
    ".main m\r\n.routine m\r\n.entry e\r\ne:\r\n  beq t0, e # loop\r\n  ret\r\n.end\r\n"
  in
  (match Program.find (Spike_asm.Parser.program_of_string crlf) "m" with
  | Some r ->
      Alcotest.(check (list string)) "CRLF entries" [ "e" ] r.Routine.entries;
      Alcotest.(check (list (pair string int))) "CRLF labels" [ ("e", 0) ] r.Routine.labels;
      Alcotest.check insn_testable "CRLF branch"
        (Insn.Bcond { cond = Insn.Eq; src = Reg.t0; target = "e" })
        r.Routine.insns.(0)
  | None -> Alcotest.fail "CRLF routine lost");
  expect_message ~line:4 ~message:"unknown register t9x"
    ".main m\r\n.routine m\r\n  ret\r\n  mov t9x, t0\r\n.end\r\n";
  Alcotest.check insn_testable "$ registers"
    (Insn.Binop { op = Insn.Add; dst = Reg.sp; src1 = Reg.v0; src2 = Insn.Reg Reg.zero })
    (single_insn (in_routine "  addq $0, $31, $30"));
  expect_message ~line:3 ~message:"unknown register $32" (in_routine "  mov $32, t0");
  expect_message ~line:3 ~message:"unknown register $" (in_routine "  mov $, t0");
  expect_message ~line:3 ~message:"unknown register t0xxxxxx" (in_routine "  li t0xxxxxx, 1");
  expect_message ~line:3 ~message:"unknown register zerozero"
    (in_routine "  stq zerozero, 8(sp)");
  let forward =
    ".main m\n.routine m\n.entry start_here\nstart_here:\n  beq t0, long_label_1\n\
    \  switch t1, [long_label_1, short, long_label_1]\n  br short\nshort:\n  nop\n\
     long_label_1:\n  ret\n.end\n"
  in
  match Program.find (Spike_asm.Parser.program_of_string forward) "m" with
  | Some r -> (
      Alcotest.(check (list (pair string int))) "long labels"
        [ ("start_here", 0); ("short", 3); ("long_label_1", 4) ]
        r.Routine.labels;
      Alcotest.(check (list string)) "long entry" [ "start_here" ] r.Routine.entries;
      let defined l = fst (List.find (fun (l', _) -> String.equal l l') r.Routine.labels) in
      (* One string per distinct label, shared by its definition and uses. *)
      Alcotest.(check bool) "entry interned" true
        (List.hd r.Routine.entries == defined "start_here");
      match r.Routine.insns with
      | [| Insn.Bcond { target; _ }; Insn.Switch { table; _ }; Insn.Br { target = short }; _; _ |]
        ->
          Alcotest.(check bool) "forward use interned" true (target == defined "long_label_1");
          Alcotest.(check bool) "table interned" true
            (table.(0) == target && table.(2) == target && table.(1) == defined "short");
          Alcotest.(check bool) "short label interned" true (short == defined "short")
      | _ -> Alcotest.fail "long labels: unexpected instructions")
  | None -> Alcotest.fail "long labels: routine lost"

(* Callee names are interned program-wide: each [bsr]/[jsr] callee shares
   one string with the routine it names, whether the routine comes before
   or after the call, and with every other call to it; a callee outside
   the image gets one string too. *)
let test_callee_interning () =
  let text =
    ".main main\n.routine main\n  bsr ra, leaf\n  bsr ra, a_much_longer_name\n\
    \  jsr ra, (pv), [leaf, a_much_longer_name, ext]\n  bsr ra, ext\n  ret\n.end\n\
     .routine leaf\n  ret\n.end\n\
     .routine a_much_longer_name\n  bsr ra, leaf\n  ret\n.end\n"
  in
  let p = Spike_asm.Parser.program_of_string text in
  let name i = (Program.get p i).Routine.name in
  let same what a b = Alcotest.(check bool) what true (a == b) in
  match ((Program.get p 0).Routine.insns, (Program.get p 2).Routine.insns) with
  | ( [|
        Insn.Call { callee = Insn.Direct leaf };
        Insn.Call { callee = Insn.Direct long };
        Insn.Call { callee = Insn.Indirect (_, Some [ leaf'; long'; ext ]) };
        Insn.Call { callee = Insn.Direct ext' };
        _;
      |],
      [| Insn.Call { callee = Insn.Direct leaf'' }; _ |] ) ->
      same "forward bsr" leaf (name 1);
      same "forward long bsr" long (name 2);
      same "jsr targets" leaf' (name 1);
      same "long jsr target" long' (name 2);
      same "backward bsr" leaf'' (name 1);
      same "external callee" ext ext';
      Alcotest.(check string) "text kept" "a_much_longer_name" long
  | _ -> Alcotest.fail "unexpected instructions"

let test_comments_and_blank_lines () =
  let text =
    "# leading comment\n\n.main m   # trailing\n.routine m\n  li t0, 3 # imm\n\n  \
     ret\n.end\n"
  in
  let p = Spike_asm.Parser.program_of_string text in
  Alcotest.(check int) "instructions" 2 (Program.instruction_count p)

let test_file_io () =
  let p = Program.make ~main:"sink" [ kitchen_sink ] in
  let path = Filename.temp_file "spike_asm_test" ".s" in
  Spike_asm.Printer.to_file path p;
  let p' = Spike_asm.Parser.program_of_file path in
  Sys.remove path;
  if not (program_eq p p') then Alcotest.fail "file roundtrip mismatch"

(* Insn.to_buffer, Routine.to_buffer and Program.to_buffer are the one
   definition of the syntax; every other printer must write the same text. *)
let test_printers_agree () =
  let buffer write x =
    let b = Buffer.create 64 in
    write b x;
    Buffer.contents b
  in
  let check_program p =
    Array.iter
      (fun (r : Routine.t) ->
        Array.iter
          (fun insn ->
            Alcotest.(check string) "Insn.to_string" (buffer Insn.to_buffer insn)
              (Insn.to_string insn);
            Alcotest.(check string) "Insn.pp" (buffer Insn.to_buffer insn)
              (Format.asprintf "%a" Insn.pp insn))
          r.insns;
        Alcotest.(check string) "Routine.pp" (buffer Routine.to_buffer r)
          (Format.asprintf "%a" Routine.pp r))
      (Program.routines p);
    Alcotest.(check string) "Printer.to_string" (buffer Program.to_buffer p)
      (Spike_asm.Printer.to_string p);
    Alcotest.(check string) "Printer.pp_program" (buffer Program.to_buffer p)
      (Format.asprintf "%a" Spike_asm.Printer.pp_program p)
  in
  (* Integers are written digit by digit; [string_of_int] is the spec. *)
  List.iter
    (fun imm ->
      Alcotest.(check string) "integer" ("li t0, " ^ string_of_int imm)
        (Insn.to_string (Insn.Li { dst = Reg.t0; imm }));
      Alcotest.(check string) "offset"
        ("ldq t1, " ^ string_of_int imm ^ "(sp)")
        (Insn.to_string (Insn.Load { dst = Reg.t1; base = Reg.sp; offset = imm })))
    [ 0; 7; 9; 10; 99; 100; -1; -9; -10; -192; 123456789; max_int; min_int; min_int + 1 ];
  check_program (Program.make ~main:"sink" [ kitchen_sink ]);
  check_program (Spike_synth.Generator.generate { Spike_synth.Params.default with seed = 5 });
  (* The concrete text: labels print in index order (list order within an
     index), and a label past the end prints before [.end]. *)
  let r =
    Routine.make ~exported:true ~name:"f" ~entries:[ "e"; "b" ]
      ~labels:[ ("b", 1); ("e", 0); ("c", 1); ("end", 2) ]
      [| Insn.Switch { index = Reg.a0; table = [| "b"; "c" |] }; Insn.Ret |]
  in
  Alcotest.(check string) "listing"
    ".main f\n\n.routine f .exported\n.entry e\n.entry b\ne:\n  switch a0, [b, c]\nb:\nc:\n  \
     ret\nend:\n.end\n\n"
    (Spike_asm.Printer.to_string (Program.make ~main:"f" [ r ]))

(* The parser must be total: any input either parses or raises its own
   Error — never an unexpected exception. *)
let test_fuzz_totality () =
  let g = Spike_support.Prng.create 1234 in
  let alphabet = "abz09 _$.,:(){}[]=#-\nliret" in
  for _ = 1 to 2000 do
    let len = Spike_support.Prng.int g 120 in
    let text =
      String.init len (fun _ ->
          alphabet.[Spike_support.Prng.int g (String.length alphabet)])
    in
    (match Spike_asm.Parser.program_of_string text with
    | _ -> ()
    | exception Spike_asm.Parser.Error _ -> ());
    match Spike_asm.Summaries.of_string text with
    | _ -> ()
    | exception Spike_asm.Summaries.Error _ -> ()
  done

let () =
  Alcotest.run "asm"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "kitchen sink" `Quick test_kitchen_sink;
          Alcotest.test_case "multi-entry + exported" `Quick test_multi_entry_and_exports;
          Alcotest.test_case "generated programs" `Quick test_generated_roundtrip;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "printers agree" `Quick test_printers_agree;
        ] );
      ( "errors",
        [
          Alcotest.test_case "positions" `Quick test_errors;
          Alcotest.test_case "lexer edge cases" `Quick test_lexer_edges;
          Alcotest.test_case "byte classes and label interning" `Quick test_lexer_paths;
          Alcotest.test_case "callee interning" `Quick test_callee_interning;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
          Alcotest.test_case "fuzz totality" `Quick test_fuzz_totality;
        ] );
    ]
