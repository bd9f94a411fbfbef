open Spike_support

let zero_regs = Regset.singleton Reg.zero

let callee_saved =
  let integer = [ Reg.s0; Reg.s1; Reg.s2; Reg.s3; Reg.s4; Reg.s5; Reg.fp; Reg.sp ] in
  let floating = List.init 8 (fun i -> Reg.freg (2 + i)) in
  Regset.of_list (integer @ floating)

let all_allocatable = Regset.diff Regset.full zero_regs
let caller_saved = Regset.diff all_allocatable callee_saved

let argument_regs =
  let integer = [ Reg.a0; Reg.a1; Reg.a2; Reg.a3; Reg.a4; Reg.a5 ] in
  let floating = List.init 6 (fun i -> Reg.freg (16 + i)) in
  Regset.of_list (integer @ floating)

let return_regs = Regset.of_list [ Reg.v0; Reg.f0 ]

let unknown_call_used =
  Regset.union argument_regs (Regset.of_list [ Reg.pv; Reg.gp; Reg.sp; Reg.ra ])

let unknown_call_defined = return_regs
let unknown_call_killed = caller_saved
let unknown_jump_live = all_allocatable
let external_return_live = Regset.union return_regs callee_saved
