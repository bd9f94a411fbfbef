open Spike_support
open Spike_isa
open Spike_ir

(* Observability: the driver's iteration, push and per-kind pop counters
   and its span, as for {!Phase1}. *)
let probes = Sched.probes "phase2"

(* Node [v] is read by the source of each of its in-edges, through that
   edge, and a return node by the exit nodes of every routine its call
   may target, through the call's return link. *)
let influence (psg : Psg.t) readers v f =
  Readers.iter_in readers v f;
  if Psg.tag psg v = Psg.Kind.return then begin
    let c = Psg.call_of_node psg (v - 1) in
    for i = psg.target_off.(c) to psg.target_off.(c + 1) - 1 do
      let r = psg.targets.(i) in
      if r >= 0 then
        for j = psg.exits_off.(r) to psg.exits_off.(r + 1) - 1 do
          f (-1 - c) psg.exit_nodes.(j)
        done
    done
  end

(* Per-node constant contribution to liveness: the calling standard's
   live-on-return set at exits of exported routines, the return-value
   registers at exits of main, every register at unknown exits (§3.5). *)
let seeds (psg : Psg.t) =
  let program = psg.program in
  let main_index = Program.main_index program in
  Array.map
    (fun kind ->
      let tag = Psg.Kind.tag kind in
      if tag = Psg.Kind.exit then begin
        let routine = Psg.Kind.routine kind in
        let s = ref Regset.empty in
        if (Program.get program routine).Routine.exported then
          s := Regset.union !s Calling_standard.external_return_live;
        if routine = main_index then s := Regset.union !s Calling_standard.return_regs;
        !s
      end
      else if tag = Psg.Kind.unknown_exit then Calling_standard.unknown_jump_live
      else Regset.empty)
    psg.kinds

(* Callers first: when a component starts, the liveness it imports —
   return-node sets of calling components, read by its exits — is
   already converged, so the fixpoint only iterates on CFG loops and
   mutual recursion. *)
let phase (psg : Psg.t) =
  let live = psg.live and labels = psg.labels in
  let seed = seeds psg in
  (* A node's liveness through edge [e]: the destination's liveness
     filtered by the label. *)
  let through e =
    let l = 3 * e in
    Regset.union labels.(l) (Regset.diff live.(psg.dst.(e)) labels.(l + 2))
  in
  (* [id]'s liveness from its seed, its outgoing edges and, at an exit
     node, the return node of every call that may return to it. *)
  let recompute (readers : Readers.t) id =
    let acc = ref seed.(id) in
    for e = psg.out_off.(id) to psg.out_off.(id + 1) - 1 do
      acc := Regset.union !acc (through e)
    done;
    if Psg.tag psg id = Psg.Kind.exit then begin
      let r = Psg.routine_of_node psg id in
      for k = readers.callers_off.(r) to readers.callers_off.(r + 1) - 1 do
        acc := Regset.union !acc live.(Psg.return_node psg readers.callers_of.(k))
      done
    end;
    if Regset.equal !acc live.(id) then false
    else begin
      live.(id) <- !acc;
      true
    end
  in
  (* A liveness change only alters a reader that would gain bits —
     liveness is a union, so a contribution the reader already covers is
     a provable no-op re-pop. *)
  let affects via u =
    let gained = if via >= 0 then through via else live.(Psg.return_node psg (-1 - via)) in
    not (Regset.subset gained live.(u))
  in
  {
    Sched.probes;
    direction = Sched.Callers_first;
    start =
      (fun id ->
        live.(id) <- seed.(id);
        true);
    enter_call = ignore;
    recompute;
    influence = influence psg;
    affects;
  }

let run ?sched psg = Sched.run ?sched:(Option.map Lazy.from_val sched) psg (phase psg)
