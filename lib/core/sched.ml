open Spike_support

type t = {
  scc : Scc.t;
  comp_of_node : int array;
  comp_nodes_p1 : int array array;
  comp_cend_p1 : int array array;
  comp_flat_p1 : int array array;
  comp_nodes_p2 : int array array;
  comp_cend_p2 : int array array;
  comp_flat_p2 : int array array;
  comp_calls : int array array;
  pool : Pool.t option;
}

(* Work items of the iterative WTO construction: decompose a vertex set,
   emit a trivial vertex, emit a dependency knot, or patch the end offset
   of a finished head-knot. *)
type wtask =
  | Wset of int array
  | Wnode of int
  | Wknot of int array
  | Wclose of int

(* Observability: component counts let a trace distinguish "many small
   components" (schedule-friendly) from "one giant recursion knot". *)
let c_comps = Spike_obs.Metrics.counter "sched.components"
let c_comps_run = Spike_obs.Metrics.counter "sched.components.run"

let make ?pool (psg : Psg.t) =
  let scc = Psg.call_scc psg in
  Spike_obs.Metrics.add c_comps scc.Scc.count;
  let n = Psg.node_count psg in
  let comp_of_node = Array.make n 0 in
  Array.iter
    (fun (node : Psg.node) ->
      comp_of_node.(node.Psg.id) <- scc.Scc.comp_of.(Psg.node_routine node.Psg.kind))
    psg.Psg.nodes;
  (* Per-phase dependency graphs: [deps.(u)] lists the nodes whose sets
     [u]'s recomputation reads.  Both phases read through outgoing flow
     edges; phase 1 additionally reads callee entry nodes at call nodes
     (through the call-return edge label), phase 2 reads caller return
     nodes at exit nodes (through the return links). *)
  let flow_deps u =
    List.map
      (fun e -> psg.Psg.edges.(e).Psg.dst)
      (Array.to_list psg.Psg.out_edges.(u))
  in
  let p1_extra = Array.make n [] and p2_extra = Array.make n [] in
  Array.iter
    (fun (info : Psg.call_info) ->
      match info.Psg.targets with
      | None -> ()
      | Some targets ->
          List.iter
            (fun target ->
              match target with
              | Psg.Target_external _ -> ()
              | Psg.Target_routine r ->
                  p1_extra.(info.Psg.call_node) <-
                    Psg.primary_entry_node psg r :: p1_extra.(info.Psg.call_node);
                  List.iter
                    (fun exit_node ->
                      p2_extra.(exit_node) <-
                        info.Psg.return_node :: p2_extra.(exit_node))
                    psg.Psg.exit_nodes.(r))
            targets)
    psg.Psg.calls;
  let deps extra =
    Array.init n (fun u -> Array.of_list (flow_deps u @ extra.(u)))
  in
  (* Node-level refinement: a weak topological order (Bourdoncle) of each
     phase's dependency graph, per call-graph component.  The component's
     nodes are SCC-decomposed; a dependency knot (CFG loop, recursion
     spine) becomes head + recursively decomposed remainder, because
     every cycle of the knot passes through its DFS root — so iterating a
     knot until its {e head} is stable, with nested knots stabilized
     recursively, converges it.  Readers then see a knot's final values
     exactly once, instead of once per lattice-ascent step.

     Node-level components never cross call-graph components (flow edges
     stay inside a routine, the extra deps follow call-graph edges), so
     the decomposition is run independently per component.  [Scc] numbers
     components reverse-topologically, so ascending order is reads-first
     at every level.

     Head removal converges fast on intra-routine knots — CFG loop nests
     are shallow — but peels a dense multi-routine recursion knot one
     vertex per level, each level re-running an SCC pass: quadratic.  So
     a knot spanning several routines is instead emitted as a {e flat
     region}: its routines in callee-first order, each routine's nodes
     recursively decomposed (their knots are intra-routine again), the
     whole region swept until a pass pops nothing.  The outer sweep pays
     for the cross-routine recursion coupling only, while CFG loops
     inside still stabilize locally.  A work budget backstops the head
     peeling; exhausted, knots are emitted as unrefined flat regions.

     The output per component is its nodes in WTO order, a parallel
     [cend] array — [cend.(i) = 0] for a trivial element, [cend.(i) = e]
     when a head-knot at [i] spans [i, e) — and the flat regions as
     [start; end) pairs, ascending and disjoint. *)
  let comp_members =
    let acc = Array.make (max scc.Scc.count 1) [] in
    for id = n - 1 downto 0 do
      acc.(comp_of_node.(id)) <- id :: acc.(comp_of_node.(id))
    done;
    Array.map Array.of_list acc
  in
  let stamp = Array.make n (-1) in
  let lidx = Array.make n 0 in
  let gen = ref (-1) in
  let routine_of id = Psg.node_routine psg.Psg.nodes.(id).Psg.kind in
  let hier dep_arr =
    let budget = ref (32 * n) in
    let comp_nodes = Array.make (max scc.Scc.count 1) [||] in
    let comp_cend = Array.make (max scc.Scc.count 1) [||] in
    let comp_flat = Array.make (max scc.Scc.count 1) [||] in
    for c = 0 to scc.Scc.count - 1 do
      let size = Array.length comp_members.(c) in
      let out = Array.make size 0 and cend = Array.make size 0 in
      let flats = ref [] in
      let cur = ref 0 in
      let tasks = ref [ Wset comp_members.(c) ] in
      while !tasks <> [] do
        let task = List.hd !tasks in
        tasks := List.tl !tasks;
        match task with
        | Wnode id ->
            out.(!cur) <- id;
            incr cur
        | Wclose p -> cend.(p) <- !cur
        | Wknot m when !budget <= 0 ->
            let p = !cur in
            Array.iter
              (fun id ->
                out.(!cur) <- id;
                incr cur)
              m;
            flats := !cur :: p :: !flats
        | Wknot m when Array.exists (fun id -> routine_of id <> routine_of m.(0)) m
          ->
            (* Multi-routine recursion knot: flat region, members kept in
               the dependency graph's DFS postorder. *)
            let p = !cur in
            Array.iter
              (fun id ->
                out.(!cur) <- id;
                incr cur)
              m;
            flats := !cur :: p :: !flats
        | Wknot m ->
            let len = Array.length m in
            let head = m.(len - 1) (* the knot's DFS root: on every cycle *) in
            let p = !cur in
            out.(p) <- head;
            incr cur;
            tasks := Wset (Array.sub m 0 (len - 1)) :: Wclose p :: !tasks
        | Wset set ->
            let len = Array.length set in
            budget := !budget - len;
            incr gen;
            Array.iteri
              (fun i id ->
                stamp.(id) <- !gen;
                lidx.(id) <- i)
              set;
            let succs =
              Array.init len (fun i ->
                  let ds = dep_arr.(set.(i)) in
                  let acc = ref [] in
                  Array.iter
                    (fun d -> if stamp.(d) = !gen then acc := lidx.(d) :: !acc)
                    ds;
                  Array.of_list !acc)
            in
            let sub = Scc.compute ~succs in
            (* Push in descending order so ascending (reads-first) pops. *)
            for g = sub.Scc.count - 1 downto 0 do
              let ms = sub.Scc.members.(g) in
              if
                Array.length ms = 1
                && not (Array.exists (fun d -> d = ms.(0)) succs.(ms.(0)))
              then tasks := Wnode set.(ms.(0)) :: !tasks
              else tasks := Wknot (Array.map (fun i -> set.(i)) ms) :: !tasks
            done
      done;
      comp_nodes.(c) <- out;
      comp_cend.(c) <- cend;
      comp_flat.(c) <- Array.of_list (List.rev !flats)
    done;
    (comp_nodes, comp_cend, comp_flat)
  in
  let comp_nodes_p1, comp_cend_p1, comp_flat_p1 = hier (deps p1_extra) in
  let comp_nodes_p2, comp_cend_p2, comp_flat_p2 = hier (deps p2_extra) in
  let calls_acc = Array.make (max scc.Scc.count 1) [] in
  Array.iteri
    (fun i (info : Psg.call_info) ->
      let c = comp_of_node.(info.Psg.call_node) in
      calls_acc.(c) <- i :: calls_acc.(c))
    psg.Psg.calls;
  let comp_calls =
    Array.init scc.Scc.count (fun c -> Array.of_list (List.rev calls_acc.(c)))
  in
  {
    scc;
    comp_of_node;
    comp_nodes_p1;
    comp_cend_p1;
    comp_flat_p1;
    comp_nodes_p2;
    comp_cend_p2;
    comp_flat_p2;
    comp_calls;
    pool;
  }

let jobs t = match t.pool with None -> 1 | Some pool -> Pool.jobs pool

let execute t ~rev ~dirty f =
  let count = t.scc.Scc.count in
  let scratch () = Bytes.make (max (Array.length t.comp_of_node) 1) '\000' in
  match t.pool with
  | Some pool when Pool.jobs pool > 1 ->
      (* Components become tasks of the condensation DAG; the direction of
         "waits on" flips with the phase.  Clean components are no-op
         tasks: they run instantly but still release their dependents. *)
      let dep_counts, dependents =
        if rev then
          ( Array.map Array.length t.scc.Scc.preds,
            t.scc.Scc.succs )
        else
          ( Array.map Array.length t.scc.Scc.succs,
            t.scc.Scc.preds )
      in
      (* One scratch mark bitset per domain, checked out around each task.
         The free list is guarded by its own mutex; the handover cost is
         two lock operations per component. *)
      let free = ref (List.init (Pool.jobs pool) (fun _ -> scratch ())) in
      let free_mutex = Mutex.create () in
      let checkout () =
        Mutex.lock free_mutex;
        let ws = match !free with [] -> assert false | ws :: rest -> free := rest; ws in
        Mutex.unlock free_mutex;
        ws
      in
      let check_in ws =
        Mutex.lock free_mutex;
        free := ws :: !free;
        Mutex.unlock free_mutex
      in
      let total = Atomic.make 0 in
      Pool.run_dag pool ~dependents ~dep_counts (fun c ->
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            let ws = checkout () in
            let iters = f ws c in
            check_in ws;
            ignore (Atomic.fetch_and_add total iters)
          end);
      Atomic.get total
  | _ ->
      let ws = scratch () in
      let total = ref 0 in
      if rev then
        for c = count - 1 downto 0 do
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            total := !total + f ws c
          end
        done
      else
        for c = 0 to count - 1 do
          if dirty c then begin
            Spike_obs.Metrics.incr c_comps_run;
            total := !total + f ws c
          end
        done;
      !total

let run ?sched psg ~rev ~cone f =
  match cone with
  | Some cone when not (Array.exists Fun.id cone) -> 0
  | _ ->
      let t = match sched with Some t -> t | None -> make psg in
      (* Only components intersecting the invalidation cone can change;
         the rest keep their restored solutions and are skipped. *)
      let dirty =
        match cone with
        | None -> fun _ -> true
        | Some cone ->
            let d = Array.make t.scc.Scc.count false in
            Array.iteri
              (fun id inside -> if inside then d.(t.comp_of_node.(id)) <- true)
              cone;
            fun c -> d.(c)
      in
      execute t ~rev ~dirty (f t)

(* The WTO interpreter.  The stack holds the open structures: head-knots
   (snap = -1; reaching the end with the head re-marked — only a cycle
   through the head re-marks it — resumes the sweep after the head) and
   flat regions (snap = pop count at last entry; pops since mean a
   cross-routine mark went backward, so the region sweeps again).  [fi]
   walks the flat-region list; re-sweeps rewind it so interior regions
   re-enter. *)
let drain ~order ~cend ~flat marked process =
  let len = Array.length order in
  let pops = ref 0 in
  let pop id =
    Bytes.unsafe_set marked id '\000';
    incr pops;
    process id
  in
  let stk_pos = Array.make (max len 1) 0 in
  let stk_end = Array.make (max len 1) 0 in
  let stk_snap = Array.make (max len 1) 0 in
  let stk_fi = Array.make (max len 1) 0 in
  let sp = ref 0 in
  let fi = ref 0 in
  let inflat = ref 0 in
  let k = ref 0 in
  while !k < len || !sp > 0 do
    if !sp > 0 && !k = Array.unsafe_get stk_end (!sp - 1) then begin
      let t = !sp - 1 in
      let pos = Array.unsafe_get stk_pos t in
      if Array.unsafe_get stk_snap t < 0 then begin
        let hid = Array.unsafe_get order pos in
        if Bytes.unsafe_get marked hid = '\001' then begin
          pop hid;
          fi := Array.unsafe_get stk_fi t;
          k := pos + 1
        end
        else decr sp
      end
      else if !pops > Array.unsafe_get stk_snap t then begin
        stk_snap.(t) <- !pops;
        fi := Array.unsafe_get stk_fi t;
        k := pos
      end
      else begin
        decr sp;
        decr inflat
      end
    end
    else if 2 * !fi < Array.length flat && Array.unsafe_get flat (2 * !fi) = !k then begin
      stk_pos.(!sp) <- !k;
      stk_end.(!sp) <- Array.unsafe_get flat ((2 * !fi) + 1);
      stk_snap.(!sp) <- !pops;
      incr fi;
      stk_fi.(!sp) <- !fi;
      incr sp;
      incr inflat
    end
    else begin
      let i = !k in
      let ce = Array.unsafe_get cend i in
      let id = Array.unsafe_get order i in
      if Bytes.unsafe_get marked id = '\001' then pop id;
      if ce = 0 || !inflat > 0 then incr k
      else begin
        stk_pos.(!sp) <- i;
        stk_end.(!sp) <- ce;
        stk_snap.(!sp) <- -1;
        stk_fi.(!sp) <- !fi;
        incr sp;
        k := i + 1
      end
    end
  done;
  !pops
