open Spike_support

type t = {
  scc : Scc.t;
  comp_of_node : int array;
  comp_nodes_p1 : int array array;
  comp_ends_p1 : int array array;
  comp_nodes_p2 : int array array;
  comp_ends_p2 : int array array;
  comp_calls : int array array;
}

(* Observability: component counts let a trace distinguish "many small
   components" (schedule-friendly) from "one giant recursion knot". *)
let c_comps = Spike_obs.Metrics.counter "sched.components"
let c_comps_run = Spike_obs.Metrics.counter "sched.components.run"
let c_built = Spike_obs.Metrics.counter "sched.built"

(* A phase's dependency graph "node [u] reads node [v]": [u]'s outgoing
   flow-edge targets, plus [extra]'s pairs — callee entry nodes at call
   nodes for phase 1, caller return nodes at exit nodes for phase 2.  A
   row lists its [extra] reads in call-site order, then its flow targets
   last edge first: the order in which Tarjan visits them, and so what
   fixes each SCC's postorder. *)
let deps (psg : Psg.t) extra =
  let n = Psg.node_count psg in
  Scc.csr n (fun f ->
      extra f;
      for u = 0 to n - 1 do
        for e = psg.Psg.out_off.(u + 1) - 1 downto psg.Psg.out_off.(u) do
          f u psg.Psg.dst.(e)
        done
      done)

let p1_extra (psg : Psg.t) f =
  Psg.iter_routine_targets psg (fun c r ->
      f psg.call_node.(c) (Psg.primary_entry_node psg r))

let p2_extra (psg : Psg.t) f =
  Psg.iter_routine_targets psg (fun c r ->
      for i = psg.exits_off.(r) to psg.exits_off.(r + 1) - 1 do
        f psg.exit_nodes.(i) (Psg.return_node psg c)
      done)

(* Node-level refinement: one SCC split of a phase's dependency graph
   per call-graph component.  Node-level components never cross
   call-graph components (flow edges stay inside a routine, the extra
   deps follow call-graph edges), so each component's nodes are split on
   their own.  [Scc] lists the SCCs reverse-topologically, each in DFS
   postorder, so the order is reads-first between SCCs.  [ends.(a) = e]
   for the SCC spanning [a, e); every other entry is 0. *)
let phase_order (psg : Psg.t) comp_members extra =
  let off, adj = deps psg extra in
  let decompose = Scc.decomposer ~off ~adj in
  let order_of members =
    let order = Array.copy members and ends = Array.make (Array.length members) 0 in
    ignore (decompose order ~ends);
    (order, ends)
  in
  let orders = Array.map order_of comp_members in
  (Array.map fst orders, Array.map snd orders)

let make ?pool (psg : Psg.t) =
  Spike_obs.Metrics.incr c_built;
  let scc = Psg.call_scc psg in
  Spike_obs.Metrics.add c_comps scc.Scc.count;
  let n = Psg.node_count psg in
  let comp_of_node =
    Array.map (fun k -> scc.Scc.comp_of.(Psg.Kind.routine k)) psg.Psg.kinds
  in
  (* Component [->] its members: a counting sort, ascending within each. *)
  let by_comp iter =
    let off, adj = Scc.csr scc.Scc.count iter in
    Array.init scc.Scc.count (fun c -> Array.sub adj off.(c) (off.(c + 1) - off.(c)))
  in
  let comp_members =
    by_comp (fun f ->
        for id = 0 to n - 1 do
          f comp_of_node.(id) id
        done)
  in
  let comp_calls =
    by_comp (fun f ->
        Array.iteri (fun c node -> f comp_of_node.(node) c) psg.Psg.call_node)
  in
  (* The two phase orders share nothing mutable, so a pool builds them
     side by side. *)
  let build i =
    phase_order psg comp_members (if i = 0 then p1_extra psg else p2_extra psg)
  in
  let orders =
    match pool with
    | Some pool -> Pool.parallel_init pool 2 build
    | None -> Array.init 2 build
  in
  let comp_nodes_p1, comp_ends_p1 = orders.(0) in
  let comp_nodes_p2, comp_ends_p2 = orders.(1) in
  {
    scc;
    comp_of_node;
    comp_nodes_p1;
    comp_ends_p1;
    comp_nodes_p2;
    comp_ends_p2;
    comp_calls;
  }

type probes = {
  span : string;
  iterations : Spike_obs.Metrics.counter;
  pushes : Spike_obs.Metrics.counter;
  pops : Spike_obs.Metrics.counter array;
}

let probes name =
  let counter suffix = Spike_obs.Metrics.counter (name ^ suffix) in
  {
    span = name ^ ".fixpoint";
    iterations = counter ".iterations";
    pushes = counter ".worklist.pushes";
    pops = Array.map (fun k -> counter (".pops." ^ k)) Psg.Kind.names;
  }

type direction = Callees_first | Callers_first

type phase = {
  probes : probes;
  direction : direction;
  start : int -> bool;
  enter_call : int -> unit;
  recompute : Readers.t -> int -> bool;
  influence : Readers.t -> int -> (int -> int -> unit) -> unit;
  affects : int -> int -> bool;
}

(* A node only marks its readers, which lie in its own SCC or a later
   one, so a pass that pops nothing leaves the SCC stable for good. *)
let drain ~order ~ends marked process =
  let pops = ref 0 in
  let a = ref 0 in
  while !a < Array.length order do
    let e = Array.unsafe_get ends !a in
    let swept = ref (-1) in
    while !pops > !swept do
      swept := !pops;
      for i = !a to e - 1 do
        let id = Array.unsafe_get order i in
        if Bytes.unsafe_get marked id = '\001' then begin
          Bytes.unsafe_set marked id '\000';
          incr pops;
          process id
        end
      done
    done;
    a := e
  done;
  !pops

let run ?sched ?readers ?cone (psg : Psg.t) phase =
  let fixpoint () =
    let t = match sched with Some t -> Lazy.force t | None -> make psg in
    let readers = match readers with Some r -> Lazy.force r | None -> Readers.make psg in
    (* Only components intersecting the invalidation cone can change;
       the rest keep their restored solutions and are skipped. *)
    let in_cone, dirty =
      match cone with
      | None -> ((fun _ -> true), fun _ -> true)
      | Some cone ->
          let d = Array.make t.scc.Scc.count false in
          Array.iteri (fun id inside -> if inside then d.(t.comp_of_node.(id)) <- true) cone;
          ((fun id -> cone.(id)), fun c -> d.(c))
    in
    let orders, ends =
      match phase.direction with
      | Callees_first -> (t.comp_nodes_p1, t.comp_ends_p1)
      | Callers_first -> (t.comp_nodes_p2, t.comp_ends_p2)
    in
    let marked = Bytes.make (max (Psg.node_count psg) 1) '\000' in
    let comp_of_node = t.comp_of_node in
    let mark id =
      if Bytes.unsafe_get marked id = '\000' then begin
        Spike_obs.Metrics.incr phase.probes.pushes;
        Bytes.unsafe_set marked id '\001'
      end
    in
    (* One component's fixpoint.  Its cross-component inputs converged
       before it started, by the schedule, so a changed node re-marks
       only the readers in its own component: a reader elsewhere seeds
       from the final value when its own component starts. *)
    let run_comp c =
      let order = orders.(c) in
      (* Only the cone starts cold; outside it the planner has already
         installed the converged values.  A node's readers lie in its own
         component or a later one, so none reads it before this. *)
      Array.iter (fun id -> if in_cone id && phase.start id then mark id) order;
      Array.iter
        (fun ci -> if in_cone psg.call_node.(ci) then phase.enter_call ci)
        t.comp_calls.(c);
      let reader via u = if comp_of_node.(u) = c && phase.affects via u then mark u in
      let process id =
        if Spike_obs.Metrics.enabled () then
          Spike_obs.Metrics.incr phase.probes.pops.(Psg.tag psg id);
        if phase.recompute readers id then phase.influence readers id reader
      in
      drain ~order ~ends:ends.(c) marked process
    in
    let count = t.scc.Scc.count in
    let total = ref 0 in
    for i = 0 to count - 1 do
      let c = match phase.direction with Callees_first -> i | Callers_first -> count - 1 - i in
      if dirty c then begin
        Spike_obs.Metrics.incr c_comps_run;
        total := !total + run_comp c
      end
    done;
    !total
  in
  let iterations =
    Spike_obs.Trace.with_span phase.probes.span (fun () ->
        match cone with
        | Some cone when not (Array.exists Fun.id cone) -> 0
        | _ -> fixpoint ())
  in
  Spike_obs.Metrics.add phase.probes.iterations iterations;
  iterations
