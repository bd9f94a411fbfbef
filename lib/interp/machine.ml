open Spike_isa
open Spike_ir

let routine_spacing = 0x100000
let routine_address i = (i + 1) * routine_spacing

let address_of_name program name =
  Option.map routine_address (Program.find_index program name)

type trap =
  | Bad_return_address of int
  | Bad_call_target of int
  | Undeclared_call_target of string
  | Unknown_routine of string
  | Unknown_jump
  | Out_of_fuel

type outcome = Halted of int | Trapped of trap

type event =
  | Executed of { routine : int; index : int; insn : Insn.t }
  | Entered of { routine : int }
  | Exited of { routine : int; exit_index : int }

type frame = { return_routine : int; return_index : int; return_address : int }

type state = {
  program : Program.t;
  regs : int array;
  memory : (int, int) Hashtbl.t;
  mutable stack : frame list;
  mutable routine : int;  (* current routine index *)
  mutable pc : int;  (* instruction index within the current routine *)
  mutable fuel : int;
  mutable executed : int;
  entry_index : int array;  (* routine -> primary entry instruction index *)
}

let stack_base = 0x8000000

let create ?(fuel = 1_000_000) program =
  let entry_index =
    Array.map
      (fun (r : Routine.t) ->
        match Routine.label_index r (Routine.primary_entry r) with
        | Some i -> i
        | None -> invalid_arg ("Machine.create: bad entry in " ^ r.Routine.name))
      (Program.routines program)
  in
  let main = Program.main_index program in
  let regs = Array.make Reg.count 0 in
  regs.(Reg.sp) <- stack_base;
  {
    program;
    regs;
    memory = Hashtbl.create 1024;
    stack = [];
    routine = main;
    pc = entry_index.(main);
    fuel;
    executed = 0;
    entry_index;
  }

let reg state r = if Reg.is_zero r then 0 else state.regs.(r)
let set_reg state r v = if not (Reg.is_zero r) then state.regs.(r) <- v
let mem state addr = match Hashtbl.find_opt state.memory addr with Some v -> v | None -> 0
let set_mem state addr v = Hashtbl.replace state.memory addr v
let steps state = state.executed

let eval_binop op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Sll -> a lsl (b land 63)
  | Insn.Srl -> a lsr (b land 63)
  | Insn.Cmpeq -> if a = b then 1 else 0
  | Insn.Cmplt -> if a < b then 1 else 0
  | Insn.Cmple -> if a <= b then 1 else 0

let eval_cond cond v =
  match cond with
  | Insn.Eq -> v = 0
  | Insn.Ne -> v <> 0
  | Insn.Lt -> v < 0
  | Insn.Le -> v <= 0
  | Insn.Gt -> v > 0
  | Insn.Ge -> v >= 0

(* Resolve a runtime value to a routine index under the addressing
   convention. *)
let routine_of_address state v =
  if v mod routine_spacing = 0 && v > 0 then begin
    let i = (v / routine_spacing) - 1 in
    if i < Program.routine_count state.program then Some i else None
  end
  else None

exception Trap of trap
exception Halt of int

let label_index_exn routine label =
  match Routine.label_index routine label with
  | Some i -> i
  | None -> assert false (* validated programs only *)

let resolve_call_target state callee =
  match callee with
  | Insn.Direct name -> (
      match Program.find_index state.program name with
      | Some i -> i
      | None -> raise (Trap (Unknown_routine name)))
  | Insn.Indirect (r, declared) -> (
      match routine_of_address state (reg state r) with
      | None -> raise (Trap (Bad_call_target (reg state r)))
      | Some i -> (
          match declared with
          | None -> i
          | Some names ->
              let name = (Program.get state.program i).Routine.name in
              if List.mem name names then i
              else raise (Trap (Undeclared_call_target name))))

let step state observer =
  if state.fuel <= 0 then raise (Trap Out_of_fuel);
  state.fuel <- state.fuel - 1;
  state.executed <- state.executed + 1;
  let routine_index = state.routine in
  let routine = Program.get state.program routine_index in
  let index = state.pc in
  let insn = routine.Routine.insns.(index) in
  let jump label = state.pc <- label_index_exn routine label in
  let executed () = observer state (Executed { routine = routine_index; index; insn }) in
  match insn with
  | Insn.Li { dst; imm } ->
      set_reg state dst imm;
      state.pc <- index + 1;
      executed ()
  | Insn.Lda { dst; base; offset } ->
      set_reg state dst (reg state base + offset);
      state.pc <- index + 1;
      executed ()
  | Insn.Mov { dst; src } ->
      set_reg state dst (reg state src);
      state.pc <- index + 1;
      executed ()
  | Insn.Binop { op; dst; src1; src2 } ->
      let b = match src2 with Insn.Reg r -> reg state r | Insn.Imm i -> i in
      set_reg state dst (eval_binop op (reg state src1) b);
      state.pc <- index + 1;
      executed ()
  | Insn.Load { dst; base; offset } ->
      set_reg state dst (mem state (reg state base + offset));
      state.pc <- index + 1;
      executed ()
  | Insn.Store { src; base; offset } ->
      set_mem state (reg state base + offset) (reg state src);
      state.pc <- index + 1;
      executed ()
  | Insn.Br { target } ->
      jump target;
      executed ()
  | Insn.Bcond { cond; src; target } ->
      if eval_cond cond (reg state src) then jump target else state.pc <- index + 1;
      executed ()
  | Insn.Switch { index = idx; table } ->
      jump table.(abs (reg state idx) mod Array.length table);
      executed ()
  | Insn.Jump_unknown _ -> raise (Trap Unknown_jump)
  | Insn.Nop ->
      state.pc <- index + 1;
      executed ()
  | Insn.Call { callee } ->
      let target = resolve_call_target state callee in
      let return_address = routine_address routine_index + index + 1 in
      set_reg state Reg.ra return_address;
      state.stack <-
        { return_routine = routine_index; return_index = index + 1; return_address }
        :: state.stack;
      state.routine <- target;
      state.pc <- state.entry_index.(target);
      executed ();
      observer state (Entered { routine = target })
  | Insn.Ret -> (
      match state.stack with
      | [] ->
          executed ();
          observer state (Exited { routine = routine_index; exit_index = index });
          raise (Halt (reg state Reg.v0))
      | frame :: rest ->
          if reg state Reg.ra <> frame.return_address then
            raise (Trap (Bad_return_address (reg state Reg.ra)));
          state.stack <- rest;
          state.routine <- frame.return_routine;
          state.pc <- frame.return_index;
          executed ();
          observer state (Exited { routine = routine_index; exit_index = index }))

let run ?(observer = fun _ _ -> ()) state =
  let rec loop () =
    match step state observer with
    | () -> loop ()
    | exception Halt v -> Halted v
    | exception Trap t -> Trapped t
  in
  loop ()

let execute ?fuel ?observer program =
  let state = create ?fuel program in
  run ?observer state
