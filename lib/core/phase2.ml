open Spike_support
open Spike_isa
open Spike_ir

(* Observability — same scheme as {!Phase1}: the iteration total is
   flushed once so it matches [Analysis.result]; pops are attributed to
   node kinds inside the loop behind the enabled flag. *)
let c_iterations = Spike_obs.Metrics.counter "phase2.iterations"
let c_pushes = Spike_obs.Metrics.counter "phase2.worklist.pushes"

let pop_counters =
  [|
    Spike_obs.Metrics.counter "phase2.pops.entry";
    Spike_obs.Metrics.counter "phase2.pops.exit";
    Spike_obs.Metrics.counter "phase2.pops.call";
    Spike_obs.Metrics.counter "phase2.pops.return";
    Spike_obs.Metrics.counter "phase2.pops.branch";
    Spike_obs.Metrics.counter "phase2.pops.unknown_exit";
  |]

let kind_index : Psg.node_kind -> int = function
  | Psg.Entry _ -> 0
  | Psg.Exit _ -> 1
  | Psg.Call _ -> 2
  | Psg.Return _ -> 3
  | Psg.Branch _ -> 4
  | Psg.Unknown_exit _ -> 5

type warm = { cone : bool array; restore : Regset.t array }

let run ?warm ?sched (psg : Psg.t) =
  let n = Psg.node_count psg in
  let nodes = psg.nodes and edges = psg.edges in
  let program = psg.program in
  let in_cone =
    match warm with None -> fun _ -> true | Some w -> fun id -> w.cone.(id)
  in
  (* Per-node constant contribution to liveness. *)
  let seed = Array.make n Regset.empty in
  let main_index =
    match Program.find_index program (Program.main program) with
    | Some i -> i
    | None -> assert false (* guaranteed by Program.make *)
  in
  Array.iter
    (fun (node : Psg.node) ->
      match node.kind with
      | Psg.Exit { routine; _ } ->
          let r = Program.get program routine in
          let s = ref Regset.empty in
          if r.Routine.exported then
            s := Regset.union !s Calling_standard.external_return_live;
          if routine = main_index then s := Regset.union !s Calling_standard.return_regs;
          seed.(node.id) <- !s
      | Psg.Unknown_exit _ -> seed.(node.id) <- Calling_standard.unknown_jump_live
      | Psg.Entry _ | Psg.Call _ | Psg.Return _ | Psg.Branch _ -> ())
    nodes;
  Array.iter
    (fun (node : Psg.node) ->
      node.may_use <-
        (if in_cone node.id then seed.(node.id)
         else
           match warm with Some w -> w.restore.(node.id) | None -> assert false))
    nodes;
  (* Return-to-exit links: an exit node's liveness accumulates the liveness
     of every return point the routine can return to.  Only in-cone exits
     need their links: a link is read when the exit is popped, or used to
     push the exit when its return node changes — and an in-cone return
     node forces the callee's exits into the cone, so both readers imply
     the exit is in the cone. *)
  let return_links = Array.make n [] (* exit node id -> return node ids *) in
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
                  List.iter
                    (fun exit_node ->
                      if in_cone exit_node then
                        return_links.(exit_node) <-
                          info.return_node :: return_links.(exit_node))
                    psg.exit_nodes.(r))
            targets)
    psg.calls;
  let exit_nodes_of_return = Array.make n [] (* return node id -> exit node ids *) in
  Array.iteri
    (fun exit_node returns ->
      List.iter
        (fun ret ->
          exit_nodes_of_return.(ret) <- exit_node :: exit_nodes_of_return.(ret))
        returns)
    return_links;
  (* Recompute [id]'s liveness from its seed, outgoing edges and return
     links; returns whether it changed.  Everything read outside the node's
     own routine ([return_links] targets, converged before this node's
     component runs under the SCC schedule) is stable, so concurrent
     component fixpoints never race. *)
  let recompute id (node : Psg.node) =
    let live = ref seed.(id) in
    let out = psg.out_edges.(id) in
    for k = 0 to Array.length out - 1 do
      let e = edges.(Array.unsafe_get out k) in
      let dst = nodes.(e.dst) in
      live :=
        Regset.union !live
          (Regset.union e.e_may_use (Regset.diff dst.may_use e.e_must_def))
    done;
    List.iter
      (fun ret -> live := Regset.union !live nodes.(ret).may_use)
      return_links.(id);
    if Regset.equal !live node.may_use then false
    else begin
      node.may_use <- !live;
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

     The drain is the same WTO interpreter as {!Phase1}, over
     [comp_nodes_p2]: dependency knots of the phase 2 graph (a node reads
     its out-edge targets, an exit node the return points of its
     intra-component callers) iterate until their heads are stable,
     innermost first, so readers pop exactly once. *)
  let run_comp (s : Sched.t) marked c =
    let comp_of_node = s.comp_of_node in
    let order = s.comp_nodes_p2.(c) in
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
    let affects (e : Psg.edge) =
      let dst = nodes.(e.dst) and reader = nodes.(e.src) in
      not
        (Regset.subset
           (Regset.union e.e_may_use (Regset.diff dst.may_use e.e_must_def))
           reader.may_use)
    in
    let process id =
      let node = nodes.(id) in
      if Spike_obs.Metrics.enabled () then
        Spike_obs.Metrics.incr pop_counters.(kind_index node.kind);
      if recompute id node then begin
        let in_edges = psg.in_edges.(id) in
        for j = 0 to Array.length in_edges - 1 do
          let e = edges.(Array.unsafe_get in_edges j) in
          if affects e then mark e.src
        done;
        List.iter
          (fun exit_node ->
            if
              comp_of_node.(exit_node) = c
              && not (Regset.subset node.may_use nodes.(exit_node).may_use)
            then mark exit_node)
          exit_nodes_of_return.(id)
      end
    in
    Sched.drain ~order ~cend:s.comp_cend_p2.(c) ~flat:s.comp_flat_p2.(c) marked
      process
  in
  let iterations =
    Spike_obs.Trace.with_span "phase2.fixpoint" @@ fun () ->
    Sched.run ?sched psg ~rev:true ~cone:(Option.map (fun w -> w.cone) warm) run_comp
  in
  Spike_obs.Metrics.add c_iterations iterations;
  iterations
