open Spike_support
open Spike_isa

(* Compose the call instruction's own effect with a callee summary: the
   caller observes the call's definitions first (they shadow callee uses),
   then the callee's summary. *)
let fold_call_effect ~call_def ~call_use ~may_use ~may_def ~must_def =
  ( Regset.union call_use (Regset.diff may_use call_def),
    Regset.union call_def may_def,
    Regset.union call_def must_def )

let unknown_assumption ~call_def ~call_use =
  fold_call_effect ~call_def ~call_use
    ~may_use:Calling_standard.unknown_call_used
    ~may_def:Calling_standard.unknown_call_killed
    ~must_def:Calling_standard.unknown_call_defined

(* Observability.  The iteration counter is flushed once from the local
   total, so the metrics snapshot matches [Analysis.result] exactly; the
   per-kind pop counters and push counter are bumped in the loop behind
   the registry's enabled flag.  All counters accumulate in per-domain
   cells, so the totals are identical whatever the parallelism. *)
let c_iterations = Spike_obs.Metrics.counter "phase1.iterations"
let c_pushes = Spike_obs.Metrics.counter "phase1.worklist.pushes"
let c_cr_updates = Spike_obs.Metrics.counter "phase1.cr_edge_updates"

let pop_counters =
  Array.map (fun k -> Spike_obs.Metrics.counter ("phase1.pops." ^ k)) Psg.Kind.names

type warm = { cone : bool array }

(* Node [i]'s triple lives at [3i] of [Psg.t.sets], edge [e]'s label at
   [3e] of [Psg.t.labels]. *)
let set3 (a : Regset.t array) i x y z =
  let o = 3 * i in
  a.(o) <- x;
  a.(o + 1) <- y;
  a.(o + 2) <- z

let cold_init (psg : Psg.t) id =
  let tag = Psg.tag psg id in
  if tag = Psg.Kind.exit then set3 psg.sets id Regset.empty Regset.empty Regset.empty
  else if tag = Psg.Kind.unknown_exit then
    (* All bets are off past an unknown jump: everything may be used and
       clobbered, nothing is guaranteed defined. *)
    set3 psg.sets id Calling_standard.unknown_jump_live Calling_standard.all_allocatable
      Regset.empty
  else set3 psg.sets id Regset.empty Regset.empty Regset.full

let cold_cr_init (psg : Psg.t) c =
  let call_def = psg.call_def.(c) and call_use = psg.call_use.(c) in
  if Psg.resolved psg c then
    (* Nothing known about the callee yet: only the call's own effect.
       MUST-DEF starts at top and shrinks. *)
    set3 psg.labels (Psg.cr_edge psg c) call_use call_def Regset.full
  else
    let may_use, may_def, must_def = unknown_assumption ~call_def ~call_use in
    set3 psg.labels (Psg.cr_edge psg c) may_use may_def must_def

(* Recompute node [id]'s three sets from its outgoing edges (meet: union
   for the MAY sets, intersection for MUST-DEF); returns whether anything
   changed.  Reads only the node's own routine — every PSG edge is
   intra-routine. *)
let recompute (psg : Psg.t) id =
  let sets = psg.sets and labels = psg.labels and dst = psg.dst in
  let first = psg.out_off.(id) and stop = psg.out_off.(id + 1) in
  if first = stop then false
  else begin
    let mu = ref Regset.empty and md = ref Regset.empty and sd = ref Regset.full in
    for e = first to stop - 1 do
      let l = 3 * e and d = 3 * dst.(e) in
      mu :=
        Regset.union !mu (Regset.union labels.(l) (Regset.diff sets.(d) labels.(l + 2)));
      md := Regset.union !md (Regset.union labels.(l + 1) sets.(d + 1));
      sd := Regset.inter !sd (Regset.union labels.(l + 2) sets.(d + 2))
    done;
    (* §3.4: a routine's saved-and-restored callee-saved registers are
       invisible to its callers. *)
    let kind = psg.kinds.(id) in
    if Psg.Kind.tag kind = Psg.Kind.entry then begin
      let mask = psg.entry_filter.(Psg.Kind.routine kind) in
      mu := Regset.diff !mu mask;
      md := Regset.diff !md mask;
      sd := Regset.diff !sd mask
    end;
    let o = 3 * id in
    let changed =
      not
        (Regset.equal !mu sets.(o)
        && Regset.equal !md sets.(o + 1)
        && Regset.equal !sd sets.(o + 2))
    in
    if changed then set3 sets id !mu !md !sd;
    changed
  end

let run ?warm ?sched ?readers (psg : Psg.t) =
  let sets = psg.sets and labels = psg.labels in
  (* Built when the first component runs, unless the caller shares its
     own: an empty cone needs none. *)
  let readers =
    match readers with Some r -> Lazy.from_val r | None -> lazy (Readers.make psg)
  in
  let in_cone =
    match warm with None -> fun _ -> true | Some w -> fun id -> w.cone.(id)
  in
  (* --- Initialization -------------------------------------------------
     Only the cone starts cold; outside it the planner has already
     installed the converged values. *)
  let () =
    Spike_obs.Trace.with_span "phase1.init" @@ fun () ->
    for id = 0 to Psg.node_count psg - 1 do
      if in_cone id then cold_init psg id
    done;
    Array.iteri (fun c node -> if in_cone node then cold_cr_init psg c) psg.call_node
  in
  let update_cr_edge c =
    if not (Psg.resolved psg c) then false
    else begin
      (* Merge the summaries of every target the call may reach: entry
         nodes for routines of the program, supplied classes for external
         code (§3.5). *)
      let may_use = ref Regset.empty
      and may_def = ref Regset.empty
      and must_def = ref Regset.full in
      for i = psg.target_off.(c) to psg.target_off.(c + 1) - 1 do
        let x = psg.targets.(i) in
        if x >= 0 then begin
          let o = 3 * Psg.primary_entry_node psg x in
          may_use := Regset.union !may_use sets.(o);
          may_def := Regset.union !may_def sets.(o + 1);
          must_def := Regset.inter !must_def sets.(o + 2)
        end
        else begin
          let x = psg.externals.(-1 - x) in
          may_use := Regset.union !may_use x.Psg.x_used;
          may_def := Regset.union !may_def x.Psg.x_killed;
          must_def := Regset.inter !must_def x.Psg.x_defined
        end
      done;
      let may_use, may_def, must_def =
        fold_call_effect ~call_def:psg.call_def.(c) ~call_use:psg.call_use.(c)
          ~may_use:!may_use ~may_def:!may_def ~must_def:!must_def
      in
      let e = Psg.cr_edge psg c in
      let l = 3 * e in
      if
        Regset.equal labels.(l) may_use
        && Regset.equal labels.(l + 1) may_def
        && Regset.equal labels.(l + 2) must_def
      then false
      else begin
        Spike_obs.Metrics.incr c_cr_updates;
        set3 labels e may_use may_def must_def;
        true
      end
    end
  in
  (* A changed read can only alter a reader whose recomputation would
     gain MAY bits or lose MUST-DEF bits through that edge — the meet is
     a union (MAY) or intersection (MUST-DEF) over edges, so a
     contribution already absorbed by the reader's current sets is a
     provable no-op re-pop.  (An entry reader additionally masks the
     contribution, which only shrinks it: the test stays sound, merely
     pruning less.)  The SCC drains use this to stop re-marking readers
     once the bits circulating a dependency knot have saturated. *)
  let affects e src =
    let l = 3 * e and d = 3 * psg.dst.(e) and r = 3 * src in
    let mu = Regset.union labels.(l) (Regset.diff sets.(d) labels.(l + 2))
    and md = Regset.union labels.(l + 1) sets.(d + 1)
    and sd = Regset.union labels.(l + 2) sets.(d + 2) in
    not
      (Regset.subset mu sets.(r)
      && Regset.subset md sets.(r + 1)
      && Regset.subset sets.(r + 2) sd)
  in
  (* --- SCC-condensation schedule ------------------------------------------
     Components of the call-graph condensation in topological order,
     callees first: when a component starts, every summary it imports
     (entry nodes of callee components) is already converged, so its
     call-return edges are seeded once with final values and the fixpoint
     only iterates on intra-component cycles — CFG loops and mutual
     recursion.  A changed entry node re-queues only the component's own
     call sites; cross-component callers see the converged entry when
     their component seeds.

     Each component drains over its dependency SCCs in [comp_nodes_p1]
     ({!Sched.drain}): a knot is swept until it is stable, so its
     readers pop once, seeing its final values, instead of once per
     lattice-ascent step of the knot. *)
  let run_comp (s : Sched.t) marked c =
    let comp_of_node = s.comp_of_node in
    let order = s.comp_nodes_p1.(c) in
    let { Readers.in_off; in_edge; in_src; callers_off; callers_of } = Lazy.force readers in
    let mark id =
      if Bytes.unsafe_get marked id = '\000' then begin
        Spike_obs.Metrics.incr c_pushes;
        Bytes.unsafe_set marked id '\001'
      end
    in
    Array.iter
      (fun ci -> if in_cone psg.call_node.(ci) then ignore (update_cr_edge ci))
      s.comp_calls.(c);
    Array.iter
      (fun id ->
        let tag = Psg.tag psg id in
        if tag <> Psg.Kind.exit && tag <> Psg.Kind.unknown_exit && in_cone id then
          mark id)
      order;
    (* Recompute a popped node, mark its readers. *)
    let process id =
      let kind = psg.kinds.(id) in
      if Spike_obs.Metrics.enabled () then
        Spike_obs.Metrics.incr pop_counters.(Psg.Kind.tag kind);
      if recompute psg id then begin
        for j = in_off.(id) to in_off.(id + 1) - 1 do
          let src = Array.unsafe_get in_src j in
          if affects (Array.unsafe_get in_edge j) src then mark src
        done;
        if Psg.Kind.tag kind = Psg.Kind.entry then begin
          let routine = Psg.Kind.routine kind in
          for k = callers_off.(routine) to callers_off.(routine + 1) - 1 do
            let ci = callers_of.(k) in
            let node = psg.call_node.(ci) in
            if comp_of_node.(node) = c then
              if update_cr_edge ci && affects (Psg.cr_edge psg ci) node then mark node
          done
        end
      end
    in
    Sched.drain ~order ~ends:s.comp_ends_p1.(c) marked process
  in
  let iterations =
    Spike_obs.Trace.with_span "phase1.fixpoint" @@ fun () ->
    Sched.run ?sched psg ~rev:false ~cone:(Option.map (fun w -> w.cone) warm) run_comp
  in
  Spike_obs.Metrics.add c_iterations iterations;
  iterations
