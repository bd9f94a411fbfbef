open Spike_isa

type t = {
  name : string;
  insns : Insn.t array;
  labels : (string * int) list;
  entries : string list;
  exported : bool;
}

let make ?(exported = false) ~name ~entries ~labels insns =
  if entries = [] then invalid_arg (name ^ ": routine needs at least one entry");
  { name; insns; labels; entries; exported }

let label_index r label = List.assoc_opt label r.labels

let primary_entry r =
  match r.entries with
  | entry :: _ -> entry
  | [] -> assert false (* excluded by [make] *)

let instruction_count r = Array.length r.insns

let exit_count r =
  Array.fold_left (fun n insn -> match insn with Insn.Ret -> n + 1 | _ -> n) 0 r.insns

(* Labels are emitted in index order, those sharing an index in list order;
   a label outside [0 .. length] is not printed.  [add_labels_at b i
   pending] prints the labels of index [i] at the head of the sorted
   [pending] list and returns the rest. *)
let rec add_labels_at b i = function
  | (_, j) :: rest when j < i -> add_labels_at b i rest
  | (l, j) :: rest when j = i ->
      Buffer.add_string b l;
      Buffer.add_string b ":\n";
      add_labels_at b i rest
  | rest -> rest

let to_buffer b r =
  let str = Buffer.add_string b in
  str ".routine ";
  str r.name;
  if r.exported then str " .exported";
  str "\n";
  List.iter (fun entry -> str ".entry "; str entry; str "\n") r.entries;
  let pending = ref (List.stable_sort (fun (_, i) (_, j) -> Int.compare i j) r.labels) in
  Array.iteri
    (fun i insn ->
      pending := add_labels_at b i !pending;
      str "  ";
      Insn.to_buffer b insn;
      str "\n")
    r.insns;
  ignore (add_labels_at b (Array.length r.insns) !pending);
  str ".end\n"

let pp ppf r =
  let b = Buffer.create 1024 in
  to_buffer b r;
  Format.pp_print_string ppf (Buffer.contents b)
