open Spike_ir

(* The syntax is written once, into a Buffer, by Insn.to_buffer,
   Routine.to_buffer and Program.to_buffer; every printer here goes
   through that one writer, which is what keeps the round-trip guarantee
   cheap to maintain. *)

let to_buffer p =
  (* The calibrated shapes print about 18 bytes per instruction, labels
     and directives included. *)
  let b = Buffer.create ((24 * Program.instruction_count p) + 256) in
  Program.to_buffer b p;
  b

let to_string p = Buffer.contents (to_buffer p)
let pp_program = Program.pp

let to_file path p =
  let b = to_buffer p in
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc
