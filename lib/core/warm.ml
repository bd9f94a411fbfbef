open Spike_support
open Spike_ir

type slice = {
  a_filter : Regset.t;
  a_local : Psg_build.local;
  a_phase1 : Regset.t array;
  a_cr : Regset.t array;
  a_phase2 : Regset.t array;
}

type routine_art = Slice of slice | Rows of Psg.t * int

type donor = {
  d_art : slice;
  d_callees : string list;
  d_exported : bool;
  d_is_main : bool;
}

type plan = {
  arts : routine_art option array;
  donors : donor option array;
  exit_seeds : bool array;
}

let cold program =
  let n = Program.routine_count program in
  {
    arts = Array.make n None;
    donors = Array.make n None;
    exit_seeds = Array.make n false;
  }

let reused plan =
  Array.fold_left (fun n a -> if a = None then n else n + 1) 0 plan.arts

let filter = function Slice s -> s.a_filter | Rows (psg, r) -> psg.Psg.entry_filter.(r)

let part = function
  | Slice s -> Psg_build.Local s.a_local
  | Rows (psg, r) -> Psg_build.Rows (psg, r)

(* A routine's internal callees by name — remembered so that if the
   routine is later edited or deleted, those callees' exit nodes can be
   re-seeded (a return-link contribution may have vanished). *)
let names program routines =
  List.sort_uniq String.compare
    (List.map (fun r -> (Program.get program r).Routine.name) routines)

(* A routine's slice is a copy of its rows of a converged PSG: the
   fragment ({!Psg_build.fragment}), the filter, and its solution rows. *)
let slice (psg : Psg.t) r =
  let n0 = psg.first_node.(r) and n1 = psg.first_node.(r + 1) in
  let c0 = psg.first_call.(r) and c1 = psg.first_call.(r + 1) in
  let a_cr = Array.make (3 * (c1 - c0)) Regset.empty in
  for k = 0 to c1 - c0 - 1 do
    Array.blit psg.labels (3 * Psg.cr_edge psg (c0 + k)) a_cr (3 * k) 3
  done;
  {
    a_filter = psg.entry_filter.(r);
    a_local = Psg_build.fragment psg r;
    a_phase1 = Array.sub psg.sets (3 * n0) (3 * (n1 - n0));
    a_cr;
    a_phase2 = Array.sub psg.live n0 (n1 - n0);
  }

let to_slice = function Slice s -> s | Rows (psg, r) -> slice psg r

(* The optimizer's passes return every routine they leave alone physically
   shared, and never mutate one in place, so [==] on routines is an exact
   "inputs unchanged" test — provided routine indices, names and [main]
   line up, which is what call resolution and the exit seeds depend on
   beyond the routine itself.  A reused routine's artifact names its rows
   of [old]; only the rebuilt routines' donors are copied. *)
let of_previous (old : Psg.t) program =
  let old_program = old.program in
  let n = Program.routine_count program in
  let same_shape =
    Program.routine_count old_program = n
    && String.equal (Program.main old_program) (Program.main program)
    && Array.for_all2
         (fun (a : Routine.t) (b : Routine.t) -> String.equal a.name b.name)
         (Program.routines old_program) (Program.routines program)
  in
  let plan = cold program in
  if same_shape then begin
    let main = Program.main_index program in
    for r = 0 to n - 1 do
      let previous = Program.get old_program r in
      if Program.get program r == previous then plan.arts.(r) <- Some (Rows (old, r))
      else
        plan.donors.(r) <-
          Some
            {
              d_art = slice old r;
              d_callees = names old_program (Psg.routine_callees old r);
              d_exported = previous.Routine.exported;
              d_is_main = r = main;
            }
    done
  end;
  plan

(* --- Solution lifting -------------------------------------------------

   The content fingerprint that guards [plan.arts] is over-sensitive for
   the {e solutions}: the dataflow result depends on the program only
   through the equation system — the PSG local fragment (structure, edge
   labels, call targets), the §3.4 filter, and the exported/main flags
   that pick phase-2 exit seeds.  A body edit that preserves all of those
   (changing an immediate, say) rebuilds the front-end artifacts but
   yields the identical equation system, whose unique least fixpoint is
   exactly the cached one.  [solutions] recognizes this after the rebuild
   and lifts the stale artifact's converged solutions as if the routine
   were clean, leaving both invalidation cones empty. *)

let c_lifted = Spike_obs.Metrics.counter "warm.solutions.lifted"

(* The fragment is plain data — ints, strings, register sets — so
   structural equality decides "same equation system".  Both sides carry
   {e current} routine indices: the rebuilt fragment natively, the
   donor's via the store's name-keyed remap.  The callee lane is left
   out: the equations read a call's resolved targets, not its names. *)
let local_equal (a : Psg_build.local) (b : Psg_build.local) =
  { a with l_callee = [||] } = { b with l_callee = [||] }

let solutions plan ~program ~parts ~filters =
  let n = Program.routine_count program in
  let main_index = Program.main_index program in
  let sols = Array.copy plan.arts in
  let exit_seeds = Array.copy plan.exit_seeds in
  let force_exits callees =
    List.iter
      (fun callee ->
        match Program.find_index program callee with
        | Some r -> exit_seeds.(r) <- true
        | None -> ())
      callees
  in
  for r = 0 to n - 1 do
    match plan.donors.(r) with
    | None -> ()
    | Some d ->
        assert (plan.arts.(r) = None);
        if
          Bool.equal d.d_exported (Program.get program r).Routine.exported
          && Bool.equal d.d_is_main (r = main_index)
          && Regset.equal d.d_art.a_filter filters.(r)
          &&
          match parts.(r) with
          | Psg_build.Local l -> local_equal d.d_art.a_local l
          | Psg_build.Rows _ -> false
        then begin
          sols.(r) <- Some (Slice d.d_art);
          Spike_obs.Metrics.incr c_lifted
        end
        else
          (* The routine really is dirty: its old call list may name
             callees the new fragment no longer reaches, whose exits
             must re-seed (a return-link contribution vanished). *)
          force_exits d.d_callees
  done;
  (sols, exit_seeds)

(* An invalidation cone is the closure of a seed set under a phase's
   influence relation ({!Phase1.influence}, {!Phase2.influence}): every
   node that reads a cone node joins the cone.  [mark] flags a node and
   stacks it, [drain] pops until empty; the cone array doubles as the
   visited set. *)
let closure (psg : Psg.t) influence seed_into =
  let cone = Array.make (Psg.node_count psg) false in
  let stack = Vec.create () in
  let mark id =
    if not cone.(id) then begin
      cone.(id) <- true;
      Vec.push stack id
    end
  in
  let mark_reader _ u = mark u in
  seed_into mark;
  let rec drain () =
    match Vec.pop stack with
    | None -> ()
    | Some id ->
        influence id mark_reader;
        drain ()
  in
  drain ();
  cone

let seed_dirty_routines (psg : Psg.t) sols mark =
  Array.iteri
    (fun r art ->
      if art = None then
        for id = psg.first_node.(r) to psg.first_node.(r + 1) - 1 do
          mark id
        done)
    sols

(* [f r art] for every solution-clean routine [r]. *)
let iter_clean sols f = Array.iteri (fun r art -> Option.iter (f r) art) sols

(* Call [k] of a clean routine's artifact: its cached call-return label's
   set [j], and the set's new home. *)
let cached_cr art k j =
  match art with
  | Slice s -> s.a_cr.((3 * k) + j)
  | Rows (old, r) -> old.Psg.labels.((3 * Psg.cr_edge old (old.first_call.(r) + k)) + j)

let cr_slot (psg : Psg.t) r k j = (3 * Psg.cr_edge psg (psg.first_call.(r) + k)) + j

(* Copies a clean routine's cached rows of one solution lane — [width]
   sets per node, [lane] of a PSG, [cached] of a slice — into [psg]'s. *)
let install ~width ~lane ~cached (psg : Psg.t) r art =
  let len = width * (psg.first_node.(r + 1) - psg.first_node.(r)) in
  let pos = width * psg.first_node.(r) in
  match art with
  | Slice s -> Array.blit (cached s) 0 (lane psg) pos len
  | Rows (old, r') -> Array.blit (lane old) (width * old.Psg.first_node.(r')) (lane psg) pos len

let phase1_plan (psg : Psg.t) ~readers ~sols =
  let cone = closure psg (Phase1.influence psg readers) (seed_dirty_routines psg sols) in
  (* Install the cached solutions; dirty slots keep whatever they hold,
     as they are inside the cone, which the phase initializes itself. *)
  iter_clean sols (fun r art ->
      install ~width:3 ~lane:(fun p -> p.Psg.sets) ~cached:(fun s -> s.a_phase1) psg r art;
      for k = 0 to psg.first_call.(r + 1) - psg.first_call.(r) - 1 do
        for j = 0 to 2 do
          psg.labels.(cr_slot psg r k j) <- cached_cr art k j
        done
      done);
  cone

let phase2_plan (psg : Psg.t) ~readers ~sols ~exit_seeds =
  let cone =
    closure psg (Phase2.influence psg readers) (fun mark ->
        seed_dirty_routines psg sols mark;
        (* A call-return label that converged differently carries a new
           use/kill summary into its call node's liveness. *)
        iter_clean sols (fun r art ->
            for k = 0 to psg.first_call.(r + 1) - psg.first_call.(r) - 1 do
              let same j = Regset.equal psg.labels.(cr_slot psg r k j) (cached_cr art k j) in
              if not (same 0 && same 1 && same 2) then
                mark psg.call_node.(psg.first_call.(r) + k)
            done);
        (* Routines that may have lost (or gained) a caller: their exit
           nodes' return-link contributions are suspect. *)
        Array.iteri
          (fun r forced ->
            if forced then
              for i = psg.exits_off.(r) to psg.exits_off.(r + 1) - 1 do
                mark psg.exit_nodes.(i)
              done)
          exit_seeds)
  in
  iter_clean sols
    (install ~width:1 ~lane:(fun p -> p.Psg.live) ~cached:(fun s -> s.a_phase2) psg);
  cone
