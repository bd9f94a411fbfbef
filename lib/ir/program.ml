open Spike_isa

type t = {
  routines : Routine.t array;
  index : (string, int) Hashtbl.t;
  main : string;
  main_index : int;
}

let make ~main routine_list =
  let routines = Array.of_list routine_list in
  let index = Hashtbl.create (Array.length routines) in
  Array.iteri
    (fun i (r : Routine.t) ->
      if Hashtbl.mem index r.name then
        invalid_arg ("Program.make: duplicate routine " ^ r.name);
      Hashtbl.add index r.name i)
    routines;
  match Hashtbl.find_opt index main with
  | None -> invalid_arg ("Program.make: main routine " ^ main ^ " not defined")
  | Some main_index -> { routines; index; main; main_index }

let main p = p.main
let main_index p = p.main_index
let routines p = p.routines
let routine_count p = Array.length p.routines
let find_index p name = Hashtbl.find_opt p.index name
let find p name = Option.map (fun i -> p.routines.(i)) (find_index p name)
let get p i = p.routines.(i)
let iter f p = Array.iteri f p.routines

let instruction_count p =
  Array.fold_left (fun n r -> n + Routine.instruction_count r) 0 p.routines

let map_routines f p =
  let routines = Array.map f p.routines in
  Array.iteri
    (fun i (r : Routine.t) ->
      if not (String.equal r.name p.routines.(i).Routine.name) then
        invalid_arg "Program.map_routines: transformation renamed a routine")
    routines;
  { p with routines }

let callees_of p (r : Routine.t) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (fun insn ->
      match Insn.call_callee insn with
      | Some (Insn.Direct name) when Hashtbl.mem p.index name ->
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            out := name :: !out
          end
      | Some (Insn.Direct _) | Some (Insn.Indirect _) | None -> ())
    r.insns;
  List.rev !out

let callee_summary_targets p callee =
  let resolve name = find_index p name in
  match callee with
  | Insn.Direct name -> (
      match resolve name with Some i -> Some [ i ] | None -> None)
  | Insn.Indirect (_, None) -> None
  | Insn.Indirect (_, Some names) ->
      let indices = List.map resolve names in
      if List.exists Option.is_none indices || names = [] then None
      else Some (List.filter_map Fun.id indices)

let to_buffer b p =
  Buffer.add_string b ".main ";
  Buffer.add_string b p.main;
  Buffer.add_string b "\n\n";
  Array.iter
    (fun r ->
      Routine.to_buffer b r;
      Buffer.add_char b '\n')
    p.routines

let pp ppf p =
  let b = Buffer.create 4096 in
  to_buffer b p;
  Format.pp_print_string ppf (Buffer.contents b)
