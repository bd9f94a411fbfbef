open Spike_support
open Spike_ir
open Spike_cfg

type routine_art = {
  a_cfg : Cfg.t;
  a_defuse : Defuse.t;
  a_filter : Regset.t;
  a_local : Psg_build.local;
  a_phase1 : Regset.t array;
  a_cr : Regset.t array;
  a_phase2 : Regset.t array;
}

type donor = {
  d_art : routine_art;
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

(* Internal routines this fragment's calls may target — remembered so that
   if this routine is later edited or deleted, those callees' exit nodes
   can be re-seeded (a return-link contribution may have vanished). *)
let callee_names program (l : Psg_build.local) =
  Array.fold_left
    (fun acc (c : Psg_build.local_call) ->
      match c.lc_targets with
      | None -> acc
      | Some targets ->
          List.fold_left
            (fun acc -> function
              | Psg.Target_external _ -> acc
              | Psg.Target_routine r ->
                  (Program.get program r).Routine.name :: acc)
            acc targets)
    [] l.l_calls
  |> List.sort_uniq String.compare

let main_index program =
  match Program.find_index program (Program.main program) with
  | Some i -> i
  | None -> assert false (* guaranteed by Program.make *)

(* The optimizer's passes return every routine they leave alone physically
   shared, and never mutate one in place, so [==] on routines is an exact
   "inputs unchanged" test — provided routine indices, names and [main]
   line up, which is what call resolution and the exit seeds depend on
   beyond the routine itself. *)
let of_previous ~old_program ~arts program =
  let n = Program.routine_count program in
  let same_shape =
    Program.routine_count old_program = n
    && Array.length arts = n
    && String.equal (Program.main old_program) (Program.main program)
    && Array.for_all2
         (fun (a : Routine.t) (b : Routine.t) -> String.equal a.name b.name)
         (Program.routines old_program) (Program.routines program)
  in
  let plan = cold program in
  if same_shape then begin
    let main = main_index program in
    for r = 0 to n - 1 do
      let old = Program.get old_program r in
      if Program.get program r == old then plan.arts.(r) <- Some arts.(r)
      else
        plan.donors.(r) <-
          Some
            {
              d_art = arts.(r);
              d_callees = callee_names old_program arts.(r).a_local;
              d_exported = old.Routine.exported;
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
   donor's via the store's name-keyed remap. *)
let local_equal (a : Psg_build.local) (b : Psg_build.local) = a = b

let solutions plan ~program ~locals ~filters =
  let n = Program.routine_count program in
  let main_index = main_index program in
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
          && local_equal d.d_art.a_local locals.(r)
        then begin
          sols.(r) <- Some d.d_art;
          Spike_obs.Metrics.incr c_lifted
        end
        else
          (* The routine really is dirty: its old call list may name
             callees the new fragment no longer reaches, whose exits
             must re-seed (a return-link contribution vanished). *)
          force_exits d.d_callees
  done;
  (sols, exit_seeds)

(* An invalidation cone is the closure of a seed set under an influence
   relation: [mark] flags a node and stacks it, [expand] pops until empty.
   The cone array doubles as the visited set. *)
let closure n seed_into expand_node =
  let cone = Array.make n false in
  let stack = Vec.create () in
  let mark id =
    if not cone.(id) then begin
      cone.(id) <- true;
      Vec.push stack id
    end
  in
  seed_into mark;
  let rec drain () =
    match Vec.pop stack with
    | None -> ()
    | Some id ->
        expand_node mark id;
        drain ()
  in
  drain ();
  cone

let seed_dirty_routines sols ~node_offset mark =
  Array.iteri
    (fun r art ->
      if art = None then
        for id = node_offset.(r) to node_offset.(r + 1) - 1 do
          mark id
        done)
    sols

(* Influence along flow and call-return edges runs against the edge
   direction: a node's recomputation reads the sets of its out-edge
   destinations, so a changed node influences its in-edge sources. *)
let mark_in_edge_sources (psg : Psg.t) mark id =
  let in_edges = psg.in_edges.(id) in
  for k = 0 to Array.length in_edges - 1 do
    mark psg.edges.(in_edges.(k)).src
  done

(* Packed restores: [stride] sets per element, dirty slots left empty
   (they are inside the cone and never read). *)
let restore_of_sols sols ~offset ~stride ~total ~get =
  let restore = Array.make (total * stride) Regset.empty in
  Array.iteri
    (fun r art ->
      match art with
      | None -> ()
      | Some art ->
          let src = get art in
          Array.blit src 0 restore (offset.(r) * stride) (Array.length src))
    sols;
  restore

let phase1_plan (psg : Psg.t) ~sols ~node_offset ~call_offset =
  let n = Psg.node_count psg in
  (* Entry nodes feed the call-return edges of their callers: precompute
     which node ids are primary entries, and of which routine. *)
  let primary_of = Array.make n (-1) in
  Array.iteri
    (fun r entries ->
      match entries with [] -> () | _ -> primary_of.(Psg.primary_entry_node psg r) <- r)
    psg.entry_nodes;
  let cone =
    closure n
      (seed_dirty_routines sols ~node_offset)
      (fun mark id ->
        mark_in_edge_sources psg mark id;
        let r = primary_of.(id) in
        if r >= 0 then
          List.iter
            (fun call_index -> mark psg.calls.(call_index).call_node)
            psg.callers_of.(r))
  in
  {
    Phase1.cone;
    restore =
      restore_of_sols sols ~offset:node_offset ~stride:3 ~total:n
        ~get:(fun a -> a.a_phase1);
    cr_restore =
      restore_of_sols sols ~offset:call_offset ~stride:3
        ~total:(Array.length psg.calls) ~get:(fun a -> a.a_cr);
  }

let phase2_plan (psg : Psg.t) ~sols ~exit_seeds ~node_offset ~call_offset ~p1_cr =
  let n = Psg.node_count psg in
  (* A return node's liveness is copied into the exit nodes of every
     routine its call can target (the paper's return-to-exit links). *)
  let ret_to_exits = Array.make n [] in
  Array.iter
    (fun (info : Psg.call_info) ->
      match info.targets with
      | None -> ()
      | Some targets ->
          List.iter
            (fun target ->
              match target with
              | Psg.Target_external _ -> ()
              | Psg.Target_routine r ->
                  ret_to_exits.(info.return_node) <-
                    psg.exit_nodes.(r) @ ret_to_exits.(info.return_node))
            targets)
    psg.calls;
  let cone =
    closure n
      (fun mark ->
        seed_dirty_routines sols ~node_offset mark;
        (* A call-return label that converged differently carries a new
           use/kill summary into its call node's liveness. *)
        Array.iteri
          (fun r art ->
            match art with
            | None -> ()
            | Some art ->
                let ncalls = Array.length art.a_cr / 3 in
                for k = 0 to ncalls - 1 do
                  let ci = call_offset.(r) + k in
                  let same j =
                    Regset.equal p1_cr.((ci * 3) + j) art.a_cr.((k * 3) + j)
                  in
                  if not (same 0 && same 1 && same 2) then mark psg.calls.(ci).call_node
                done)
          sols;
        (* Routines that may have lost (or gained) a caller: their exit
           nodes' return-link contributions are suspect. *)
        Array.iteri
          (fun r forced -> if forced then List.iter mark psg.exit_nodes.(r))
          exit_seeds)
      (fun mark id ->
        mark_in_edge_sources psg mark id;
        List.iter mark ret_to_exits.(id))
  in
  {
    Phase2.cone;
    restore =
      restore_of_sols sols ~offset:node_offset ~stride:1 ~total:n
        ~get:(fun a -> a.a_phase2);
  }

let pack_sets3 (a : Regset.t array) i x y z =
  let o = i * 3 in
  a.(o) <- x;
  a.(o + 1) <- y;
  a.(o + 2) <- z

let snapshot_phase1 (psg : Psg.t) =
  let nodes = Array.make (Psg.node_count psg * 3) Regset.empty in
  Array.iter
    (fun (nd : Psg.node) -> pack_sets3 nodes nd.id nd.may_use nd.may_def nd.must_def)
    psg.nodes;
  let cr = Array.make (Array.length psg.calls * 3) Regset.empty in
  Array.iteri
    (fun i (info : Psg.call_info) ->
      let e = psg.edges.(info.cr_edge) in
      pack_sets3 cr i e.e_may_use e.e_may_def e.e_must_def)
    psg.calls;
  (nodes, cr)

let snapshot_live (psg : Psg.t) =
  Array.map (fun (nd : Psg.node) -> nd.may_use) psg.nodes

let capture ~cfgs ~defuses ~filters ~locals ~p1_nodes ~p1_cr ~p2_live ~node_offset
    ~call_offset =
  Array.mapi
    (fun r (local : Psg_build.local) ->
      let nlen = Array.length local.l_kinds in
      let clen = Array.length local.l_calls in
      {
        a_cfg = cfgs.(r);
        a_defuse = defuses.(r);
        a_filter = filters.(r);
        a_local = local;
        a_phase1 = Array.sub p1_nodes (node_offset.(r) * 3) (nlen * 3);
        a_cr = Array.sub p1_cr (call_offset.(r) * 3) (clen * 3);
        a_phase2 = Array.sub p2_live node_offset.(r) nlen;
      })
    locals
