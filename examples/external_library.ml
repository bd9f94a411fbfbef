(* §3.5 in practice: analysing a program that calls a shared library.
   Without extra information Spike must assume every library call obeys the
   calling standard (arguments used, temporaries killed).  A summary file
   from the compiler or linker replaces the assumption with exact sets.

     dune exec examples/external_library.exe *)

open Spike_isa
open Spike_ir
open Spike_core

(* The application: computes with t3 live across a library call, and sets
   up two arguments the library may or may not read. *)
let app =
  let b = Builder.create "main" in
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = -16 });
  Builder.emit b (Insn.Store { src = Reg.ra; base = Reg.sp; offset = 0 });
  Builder.emit b (Insn.Li { dst = Reg.a0; imm = 100 });
  Builder.emit b (Insn.Li { dst = Reg.a1; imm = 200 });
  (* would be dead if the library doesn't read a1 *)
  Builder.emit b (Insn.Call { callee = Insn.Direct "lib_checksum" });
  Builder.emit b (Insn.Store { src = Reg.v0; base = Reg.zero; offset = 8192 });
  Builder.emit b (Insn.Load { dst = Reg.ra; base = Reg.sp; offset = 0 });
  Builder.emit b (Insn.Lda { dst = Reg.sp; base = Reg.sp; offset = 16 });
  Builder.emit b Insn.Ret;
  Program.make ~main:"main" [ Builder.finish b ]

(* What the linker knows about lib_checksum: reads only a0, returns in v0,
   clobbers v0/t0/ra. *)
let summary_file =
  ".summary lib_checksum\n  used = {a0}\n  defined = {v0}\n  killed = {v0, t0, ra}\n.end\n"

let describe label analysis =
  let site = Analysis.site_class analysis 0 in
  let pp = Spike_support.Regset.pp ~name:Reg.name in
  Format.printf "%s@.  call-used   = %a@.  call-killed = %a@." label pp
    site.Summary.used pp site.Summary.killed;
  let optimized, report = Spike_opt.Opt.run analysis in
  Format.printf "  dead instructions removed: %d@."
    report.Spike_opt.Opt.dead_instructions_removed;
  let kept_a1 =
    Array.exists
      (fun insn -> match insn with Insn.Li { dst; imm = 200 } -> dst = Reg.a1 | _ -> false)
      (Option.get (Program.find optimized "main")).Routine.insns
  in
  Format.printf "  the a1 argument setup %s@.@."
    (if kept_a1 then "is kept (might be read)" else "was deleted (provably unread)")

let () =
  (match Validate.check app with
  | Ok () -> ()
  | Error e ->
      List.iter print_endline e;
      exit 1);
  Format.printf "=== Calling-standard assumption (no summary file)@.";
  describe "lib_checksum assumed to obey the standard:" (Analysis.run app);
  Format.printf "=== With the linker's summary file@.%s@." summary_file;
  let entries = Spike_asm.Summaries.of_string summary_file in
  describe "lib_checksum summarised exactly:"
    (Analysis.run ~externals:(Spike_asm.Summaries.lookup entries) app)
