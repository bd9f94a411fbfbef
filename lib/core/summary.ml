open Spike_support
open Spike_isa
open Spike_ir

type call_class = { used : Regset.t; defined : Regset.t; killed : Regset.t }

type t = {
  routine : int;
  name : string;
  call_class : call_class;
  live_at_entry : (string * Regset.t) list;
  live_at_exit : (int * Regset.t) list;
}

(* MUST-DEF's lattice top is the full bitset; strip the hardwired zero
   registers (and anything else unallocatable) from reported summaries. *)
let mask = Calling_standard.all_allocatable

let class_of_entry_node (psg : Psg.t) node_id =
  let o = 3 * node_id in
  {
    used = Regset.inter psg.sets.(o) mask;
    defined = Regset.inter psg.sets.(o + 2) mask;
    killed = Regset.inter psg.sets.(o + 1) mask;
  }

let extract_call_classes (psg : Psg.t) =
  Array.init (Program.routine_count psg.program) (fun r ->
      class_of_entry_node psg (Psg.primary_entry_node psg r))

let extract (psg : Psg.t) call_classes =
  let program = psg.program in
  Array.init (Program.routine_count program) (fun r ->
      let routine = Program.get program r in
      (* An entry node's block field is its position in the entry list. *)
      let labels = Array.of_list routine.Routine.entries in
      let live_at_entry =
        List.map
          (fun node_id ->
            (labels.(Psg.block psg node_id), Regset.inter psg.live.(node_id) mask))
          (Psg.entry_node_list psg r)
      in
      let live_at_exit =
        List.map
          (fun node_id -> (Psg.block psg node_id, Regset.inter psg.live.(node_id) mask))
          (Psg.exit_node_list psg r)
      in
      {
        routine = r;
        name = routine.Routine.name;
        call_class = call_classes.(r);
        live_at_entry;
        live_at_exit;
      })

let site_class (psg : Psg.t) call_classes c =
  if not (Psg.resolved psg c) then
    {
      used = Calling_standard.unknown_call_used;
      defined = Calling_standard.unknown_call_defined;
      killed = Calling_standard.unknown_call_killed;
    }
  else begin
    let acc = ref { used = Regset.empty; defined = mask; killed = Regset.empty } in
    for i = psg.target_off.(c) to psg.target_off.(c + 1) - 1 do
      let x = psg.targets.(i) in
      let cls =
        if x >= 0 then call_classes.(x)
        else
          let e = psg.externals.(-1 - x) in
          {
            used = Regset.inter e.Psg.x_used mask;
            defined = Regset.inter e.Psg.x_defined mask;
            killed = Regset.inter e.Psg.x_killed mask;
          }
      in
      acc :=
        {
          used = Regset.union !acc.used cls.used;
          defined = Regset.inter !acc.defined cls.defined;
          killed = Regset.union !acc.killed cls.killed;
        }
    done;
    !acc
  end

let find summaries program name =
  Option.map (fun i -> summaries.(i)) (Program.find_index program name)

let pp ppf s =
  let pr = Regset.pp ~name:Reg.name in
  Format.fprintf ppf "@[<v2>%s:@ call-used=%a@ call-defined=%a@ call-killed=%a" s.name
    pr s.call_class.used pr s.call_class.defined pr s.call_class.killed;
  List.iter
    (fun (label, live) -> Format.fprintf ppf "@ live-at-entry(%s)=%a" label pr live)
    s.live_at_entry;
  List.iter
    (fun (block, live) -> Format.fprintf ppf "@ live-at-exit(B%d)=%a" block pr live)
    s.live_at_exit;
  Format.fprintf ppf "@]"
