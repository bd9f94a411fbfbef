open Spike_isa

let check_routine (r : Routine.t) =
  let problems = ref [] in
  let report fmt = Format.kasprintf (fun s -> problems := (r.name ^ ": " ^ s) :: !problems) fmt in
  let len = Array.length r.insns in
  if len = 0 then report "empty routine body";
  (* Labels: unique, within [0 .. len].  [index] maps each label to its
     first binding, as Routine.label_index does. *)
  let index = Hashtbl.create 16 in
  List.iter
    (fun (l, i) ->
      if Hashtbl.mem index l then report "duplicate label %s" l
      else Hashtbl.add index l i;
      if i < 0 || i > len then report "label %s out of bounds (%d)" l i)
    r.labels;
  Array.iteri
    (fun i insn ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt index l with
          | None -> report "instruction %d branches to undefined label %s" i l
          | Some j ->
              if j >= len then report "instruction %d branches to end-of-routine label %s" i l)
        (Insn.branch_targets insn);
      match insn with
      | Insn.Switch { table; _ } when Array.length table = 0 ->
          report "instruction %d has an empty jump table" i
      | Insn.Switch _ | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _
      | Insn.Store _ | Insn.Br _ | Insn.Bcond _ | Insn.Jump_unknown _ | Insn.Call _
      | Insn.Ret | Insn.Nop ->
          ())
    r.insns;
  List.iter
    (fun entry ->
      match Hashtbl.find_opt index entry with
      | None -> report "entry %s is not a defined label" entry
      | Some i -> if i >= len then report "entry %s points past the routine body" entry)
    r.entries;
  if len > 0 && Insn.falls_through r.insns.(len - 1) then
    report "control can fall off the end (last instruction %s falls through)"
      (Insn.to_string r.insns.(len - 1));
  List.rev !problems

let check p =
  let problems = List.concat_map check_routine (Array.to_list (Program.routines p)) in
  match problems with [] -> Ok () | _ :: _ -> Error problems
