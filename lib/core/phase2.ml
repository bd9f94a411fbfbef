open Spike_support
open Spike_isa
open Spike_ir

(* Observability — same scheme as {!Phase1}: the iteration total is
   flushed once so it matches [Analysis.result]; pops are attributed to
   node kinds inside the loop behind the enabled flag. *)
let c_iterations = Spike_obs.Metrics.counter "phase2.iterations"
let c_pushes = Spike_obs.Metrics.counter "phase2.worklist.pushes"

let pop_counters =
  Array.map (fun k -> Spike_obs.Metrics.counter ("phase2.pops." ^ k)) Psg.Kind.names

type warm = { cone : bool array }

let run ?warm ?sched ?readers (psg : Psg.t) =
  let n = Psg.node_count psg in
  let readers =
    match readers with Some r -> Lazy.from_val r | None -> lazy (Readers.make psg)
  in
  let live = psg.live and labels = psg.labels in
  let program = psg.program in
  let in_cone =
    match warm with None -> fun _ -> true | Some w -> fun id -> w.cone.(id)
  in
  (* Per-node constant contribution to liveness. *)
  let seed = Array.make n Regset.empty in
  let main_index = Program.main_index program in
  Array.iteri
    (fun id kind ->
      let tag = Psg.Kind.tag kind in
      if tag = Psg.Kind.exit then begin
        let routine = Psg.Kind.routine kind in
        let r = Program.get program routine in
        let s = ref Regset.empty in
        if r.Routine.exported then
          s := Regset.union !s Calling_standard.external_return_live;
        if routine = main_index then s := Regset.union !s Calling_standard.return_regs;
        seed.(id) <- !s
      end
      else if tag = Psg.Kind.unknown_exit then seed.(id) <- Calling_standard.unknown_jump_live)
    psg.kinds;
  (* Only the cone restarts from its seed; outside it the planner has
     already installed the converged liveness. *)
  for id = 0 to n - 1 do
    if in_cone id then live.(id) <- seed.(id)
  done;
  (* Return-to-exit links: an exit node's liveness accumulates the liveness
     of every return point the routine can return to.  Only in-cone exits
     need their links: a link is read when the exit is popped, or used to
     push the exit when its return node changes — and an in-cone return
     node forces the callee's exits into the cone, so both readers imply
     the exit is in the cone. *)
  let return_links = Array.make n [] (* exit node id -> return node ids *) in
  Psg.iter_routine_targets psg (fun c r ->
      for i = psg.exits_off.(r) to psg.exits_off.(r + 1) - 1 do
        let exit_node = psg.exit_nodes.(i) in
        if in_cone exit_node then
          return_links.(exit_node) <- Psg.return_node psg c :: return_links.(exit_node)
      done);
  let exit_nodes_of_return = Array.make n [] (* return node id -> exit node ids *) in
  Array.iteri
    (fun exit_node returns ->
      List.iter
        (fun ret ->
          exit_nodes_of_return.(ret) <- exit_node :: exit_nodes_of_return.(ret))
        returns)
    return_links;
  (* A node's liveness through edge [e]: the destination's liveness
     filtered by the label. *)
  let through e =
    let l = 3 * e in
    Regset.union labels.(l) (Regset.diff live.(psg.dst.(e)) labels.(l + 2))
  in
  (* Recompute [id]'s liveness from its seed, outgoing edges and return
     links; returns whether it changed.  Everything read outside the node's
     own routine ([return_links] targets) converged before this node's
     component runs under the SCC schedule. *)
  let recompute id =
    let acc = ref seed.(id) in
    for e = psg.out_off.(id) to psg.out_off.(id + 1) - 1 do
      acc := Regset.union !acc (through e)
    done;
    List.iter (fun ret -> acc := Regset.union !acc live.(ret)) return_links.(id);
    if Regset.equal !acc live.(id) then false
    else begin
      live.(id) <- !acc;
      true
    end
  in
  (* --- SCC-condensation schedule ------------------------------------------
     Reverse topological order: callers first.  When a component starts,
     the liveness it imports — return-node sets of calling components,
     read through [return_links] — is already converged, so a changed
     return node only re-queues exits of its own component (mutual
     recursion); cross-component exits pick up the final values when their
     component seeds.

     The drain is the same SCC sweep as {!Phase1}, over [comp_nodes_p2]:
     a dependency knot of the phase 2 graph (a node reads its out-edge
     targets, an exit node the return points of its intra-component
     callers) is swept until it is stable, so its readers pop once. *)
  let run_comp (s : Sched.t) marked c =
    let comp_of_node = s.comp_of_node in
    let order = s.comp_nodes_p2.(c) in
    let { Readers.in_off; in_edge; in_src; _ } = Lazy.force readers in
    let mark id =
      if Bytes.unsafe_get marked id = '\000' then begin
        Spike_obs.Metrics.incr c_pushes;
        Bytes.unsafe_set marked id '\001'
      end
    in
    Array.iter (fun id -> if in_cone id then mark id) order;
    (* A liveness change only alters a reader that would gain bits through
       the edge — liveness is a union, so a contribution the reader already
       covers is a provable no-op re-pop. *)
    let affects e src = not (Regset.subset (through e) live.(src)) in
    let process id =
      if Spike_obs.Metrics.enabled () then
        Spike_obs.Metrics.incr pop_counters.(Psg.tag psg id);
      if recompute id then begin
        for j = in_off.(id) to in_off.(id + 1) - 1 do
          let src = Array.unsafe_get in_src j in
          if affects (Array.unsafe_get in_edge j) src then mark src
        done;
        List.iter
          (fun exit_node ->
            if
              comp_of_node.(exit_node) = c
              && not (Regset.subset live.(id) live.(exit_node))
            then mark exit_node)
          exit_nodes_of_return.(id)
      end
    in
    Sched.drain ~order ~ends:s.comp_ends_p2.(c) marked process
  in
  let iterations =
    Spike_obs.Trace.with_span "phase2.fixpoint" @@ fun () ->
    Sched.run ?sched psg ~rev:true ~cone:(Option.map (fun w -> w.cone) warm) run_comp
  in
  Spike_obs.Metrics.add c_iterations iterations;
  iterations
