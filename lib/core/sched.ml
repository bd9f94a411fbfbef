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
   fixes each knot's DFS root and postorder. *)
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

(* Node-level refinement: a weak topological order (Bourdoncle) of one
   phase's dependency graph, per call-graph component.  The component's
   nodes are SCC-decomposed; a dependency knot (CFG loop, recursion
   spine) becomes head + recursively decomposed remainder, because every
   cycle of the knot passes through its DFS root — so iterating a knot
   until its {e head} is stable, with nested knots stabilized
   recursively, converges it.  Readers then see a knot's final values
   exactly once, instead of once per lattice-ascent step.

   Node-level components never cross call-graph components (flow edges
   stay inside a routine, the extra deps follow call-graph edges), so the
   decomposition runs independently per component.  [Scc] lists
   components reverse-topologically, so slice order is reads-first at
   every level.

   Head removal converges fast on intra-routine knots — CFG loop nests
   are shallow — but peels a dense multi-routine recursion knot one
   vertex per level, each level re-running an SCC pass: quadratic.  So a
   knot spanning several routines is instead emitted as a {e flat
   region}: its members in the dependency graph's DFS postorder, swept
   as a whole until a pass pops nothing, with no knot inside it.  A work
   budget backstops the head peeling; exhausted, every later knot is
   emitted as a flat region too.

   The decomposition works in place on the component's order array: a
   slice is rewritten as its components, each already in postorder, so a
   trivial element or a flat region is final where it lies, and a
   head-knot only rotates its head (the postorder-last member) to the
   front before its remainder is decomposed in turn.  [cend] doubles as
   the decomposer's component-end table: an entry is set at each
   component start and reset to 0 unless the component is a head-knot,
   whose entry [e] says it spans [i, e).  An explicit stack of open
   slices (cursor, end) replaces recursion. *)
let phase_order (psg : Psg.t) comp_members extra =
  let n = Psg.node_count psg in
  let off, adj = deps psg extra in
  let decompose = Scc.decomposer ~off ~adj in
  let routine_of id = Psg.routine_of_node psg id in
  let self_loop v =
    let rec scan e = e < off.(v + 1) && (adj.(e) = v || scan (e + 1)) in
    scan off.(v)
  in
  let multi_routine order a e =
    let r = routine_of order.(a) in
    let rec scan i = i < e && (routine_of order.(i) <> r || scan (i + 1)) in
    scan (a + 1)
  in
  let budget = ref (32 * n) in
  let largest = Array.fold_left (fun m c -> max m (Array.length c)) 0 comp_members in
  let stk_k = Array.make (largest + 1) 0 and stk_end = Array.make (largest + 1) 0 in
  let flats = Array.make (2 * largest) 0 in
  let order_of members =
    let size = Array.length members in
    let order = Array.copy members and cend = Array.make size 0 in
    let nflat = ref 0 and sp = ref 0 in
    let open_slice a e =
      budget := !budget - (e - a);
      ignore (decompose order ~pos:a ~len:(e - a) ~ends:cend);
      stk_k.(!sp) <- a;
      stk_end.(!sp) <- e;
      incr sp
    in
    open_slice 0 size;
    while !sp > 0 do
      let t = !sp - 1 in
      let a = stk_k.(t) in
      if a = stk_end.(t) then decr sp
      else begin
        let e = cend.(a) in
        stk_k.(t) <- e;
        if e - a = 1 && not (self_loop order.(a)) then cend.(a) <- 0
        else if !budget <= 0 || multi_routine order a e then begin
          cend.(a) <- 0;
          flats.(!nflat) <- a;
          flats.(!nflat + 1) <- e;
          nflat := !nflat + 2
        end
        else begin
          let head = order.(e - 1) in
          Array.blit order a order (a + 1) (e - 1 - a);
          order.(a) <- head;
          open_slice (a + 1) e
        end
      end
    done;
    (order, cend, Array.sub flats 0 !nflat)
  in
  let orders = Array.map order_of comp_members in
  ( Array.map (fun (o, _, _) -> o) orders,
    Array.map (fun (_, c, _) -> c) orders,
    Array.map (fun (_, _, f) -> f) orders )

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
  let comp_nodes_p1, comp_cend_p1, comp_flat_p1 = orders.(0) in
  let comp_nodes_p2, comp_cend_p2, comp_flat_p2 = orders.(1) in
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
  }

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
      let scratch = Bytes.make (max (Array.length t.comp_of_node) 1) '\000' in
      let count = t.scc.Scc.count in
      let total = ref 0 in
      for i = 0 to count - 1 do
        let c = if rev then count - 1 - i else i in
        if dirty c then begin
          Spike_obs.Metrics.incr c_comps_run;
          total := !total + f t scratch c
        end
      done;
      !total

(* The WTO interpreter.  The stack holds the open structures: head-knots
   (snap = -1; reaching the end with the head re-marked — only a cycle
   through the head re-marks it — resumes the sweep after the head) and
   flat regions (snap = pop count at last entry; pops since mean a
   cross-routine mark went backward, so the region sweeps again).  A flat
   region holds no knot, so its members are swept as trivial elements;
   a head-knot may hold flat regions (the work-budget fallback).  [fi]
   walks the flat-region list; a head-knot's re-sweep rewinds it so its
   interior regions re-enter. *)
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
      else decr sp
    end
    else if 2 * !fi < Array.length flat && Array.unsafe_get flat (2 * !fi) = !k then begin
      stk_pos.(!sp) <- !k;
      stk_end.(!sp) <- Array.unsafe_get flat ((2 * !fi) + 1);
      stk_snap.(!sp) <- !pops;
      incr fi;
      stk_fi.(!sp) <- !fi;
      incr sp
    end
    else begin
      let i = !k in
      let ce = Array.unsafe_get cend i in
      let id = Array.unsafe_get order i in
      if Bytes.unsafe_get marked id = '\001' then pop id;
      if ce = 0 then incr k
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
